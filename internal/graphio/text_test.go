package graphio

import (
	"strings"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
)

const mp3Text = `
# MP3 playback, DATE 2008 Section 5
task vBR  wcrt 32/625
task vMP3 wcrt 3/125
task vSRC wcrt 1/100
task vDAC wcrt 1/44100

buffer vBR  -> vMP3 prod 2048 cons {96,120,144,168,192,240,288,336,384,480,576,672,768,960} bytes 1
buffer vMP3 -> vSRC prod 1152 cons 480 bytes 4
buffer vSRC -> vDAC prod 441  cons 1 cap 882 bytes 4

constraint vDAC period 1/44100
`

func TestDecodeTextMP3(t *testing.T) {
	g, c, err := DecodeText([]byte(mp3Text))
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Task != "vDAC" || !c.Period.Equal(ratio.MustNew(1, 44100)) {
		t.Fatalf("constraint = %+v", c)
	}
	want, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, wt := range want.Tasks() {
		got := g.Task(wt.Name)
		if got == nil || !got.WCRT.Equal(wt.WCRT) {
			t.Errorf("task %s wrong or missing", wt.Name)
		}
	}
	b := g.BufferByName("vBR->vMP3")
	if b == nil || !b.Cons.Equal(mp3.FrameSizes()) {
		t.Errorf("frame quanta wrong: %v", b)
	}
	if b.ContainerBytes != 1 {
		t.Errorf("container bytes = %d", b.ContainerBytes)
	}
	if g.BufferByName("vSRC->vDAC").Capacity != 882 {
		t.Error("capacity option lost")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g, c, err := DecodeText([]byte(mp3Text))
	if err != nil {
		t.Fatal(err)
	}
	out := EncodeText(g, c)
	g2, c2, err := DecodeText(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if len(g2.Tasks()) != len(g.Tasks()) || len(g2.Buffers()) != len(g.Buffers()) {
		t.Fatal("round trip lost elements")
	}
	for i, b := range g.Buffers() {
		b2 := g2.Buffers()[i]
		if !b2.Prod.Equal(b.Prod) || !b2.Cons.Equal(b.Cons) ||
			b2.Capacity != b.Capacity || b2.ContainerBytes != b.ContainerBytes {
			t.Errorf("buffer %d altered", i)
		}
	}
	if c2 == nil || !c2.Period.Equal(c.Period) {
		t.Error("constraint altered")
	}
}

func TestDecodeTextRanges(t *testing.T) {
	doc := `
task a wcrt 1
task b wcrt 1
buffer a -> b prod 4 cons 2..5
`
	g, _, err := DecodeText([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cons := g.Buffers()[0].Cons
	if cons.Len() != 4 || cons.Min() != 2 || cons.Max() != 5 {
		t.Errorf("range parsed as %v", cons)
	}
}

func TestDecodeTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad directive":    "flurb x",
		"short task":       "task a",
		"bad wcrt":         "task a wcrt x",
		"dup task":         "task a wcrt 1\ntask a wcrt 1",
		"short buffer":     "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1",
		"bad arrow":        "task a wcrt 1\ntask b wcrt 1\nbuffer a to b prod 1 cons 1",
		"bad quanta":       "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod x cons 1",
		"bad set":          "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod {1,x} cons 1",
		"bad range":        "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 5..x cons 1",
		"dangling option":  "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1 cons 1 cap",
		"unknown option":   "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1 cons 1 zap 3",
		"bad option value": "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1 cons 1 cap x",
		"short constraint": "task a wcrt 1\nconstraint a",
		"bad period":       "task a wcrt 1\nconstraint a period x",
		"dup constraint":   "task a wcrt 1\nconstraint a period 1\nconstraint a period 1",
		"unknown con task": "task a wcrt 1\nconstraint zz period 1",
		"unknown producer": "task a wcrt 1\nbuffer zz -> a prod 1 cons 1",
	}
	for name, doc := range cases {
		if _, _, err := DecodeText([]byte(doc)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, doc)
		} else if !strings.Contains(err.Error(), "graphio") && !strings.Contains(err.Error(), "taskgraph") {
			t.Errorf("%s: error lacks context: %v", name, err)
		}
	}
}

func TestDecodeAnySniffsFormat(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	jsonData, err := Encode(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeAny(jsonData); err != nil {
		t.Errorf("JSON not sniffed: %v", err)
	}
	if _, _, err := DecodeAny([]byte(mp3Text)); err != nil {
		t.Errorf("text not sniffed: %v", err)
	}
	if _, _, err := DecodeAny([]byte("  \n\t")); err == nil {
		t.Error("empty document accepted")
	}
}

// TestDecodeTextAllocs pins the parser's allocations on the MP3 document
// and on an 8-task chain shaped like the chain-sweep workload's: the
// document string, the graph, its task and buffer arrays and their views,
// one default name per buffer, one array per quanta set of two or more
// members, and the constraint.
func TestDecodeTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the count holds without -race")
	}
	var chain8 []byte
	for seed := int64(1_000_003); chain8 == nil; seed++ {
		g, c, err := graphgen.Random(graphgen.Config{Seed: seed, MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Tasks()) == 8 {
			chain8 = EncodeText(g, &c)
		}
	}
	for _, tc := range []struct {
		name string
		doc  []byte
		max  float64
	}{
		{"the MP3 document", []byte(mp3Text), 11},
		{"an 8-task chain", chain8, 25},
	} {
		n := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeText(tc.doc); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.max {
			t.Errorf("DecodeText of %s: %v allocs, want at most %v\n%s", tc.name, n, tc.max, tc.doc)
		}
	}
}
