package graphio

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// encodeTextRef is the fmt-based encoder EncodeText replaced, kept as the
// oracle of TestEncodeTextMatchesReference and
// FuzzEncodeTextMatchesReference. It is verbatim but for a fresh buffer in
// place of its pool, and its quanta go through the fmt-based
// QuantaSet.String of the same tree.
func encodeTextRef(g *taskgraph.Graph, c *taskgraph.Constraint) []byte {
	b := new(bytes.Buffer)
	for _, t := range g.Tasks() {
		fmt.Fprintf(b, "task %s wcrt %s\n", t.Name, t.WCRT)
	}
	for _, buf := range g.Buffers() {
		fmt.Fprintf(b, "buffer %s -> %s prod %s cons %s",
			buf.Producer, buf.Consumer, formatQuantaRef(buf.Prod), formatQuantaRef(buf.Cons))
		if buf.Capacity > 0 {
			fmt.Fprintf(b, " cap %d", buf.Capacity)
		}
		if buf.ContainerBytes > 0 {
			fmt.Fprintf(b, " bytes %d", buf.ContainerBytes)
		}
		b.WriteByte('\n')
	}
	if c != nil {
		fmt.Fprintf(b, "constraint %s period %s\n", c.Task, c.Period)
	}
	return append([]byte(nil), b.Bytes()...)
}

// formatQuantaRef renders a set in the text syntax (single value or {...};
// ranges are not reconstructed).
func formatQuantaRef(q taskgraph.QuantaSet) string {
	if q.IsConstant() {
		return fmt.Sprintf("%d", q.Max())
	}
	return quantaStringRef(q) // already "{a,b,c}"
}

// quantaStringRef is the fmt-based QuantaSet.String that AppendText
// replaced: "{a,b,c}", or "a" for singletons.
func quantaStringRef(q taskgraph.QuantaSet) string {
	if !q.IsValid() {
		return "{}"
	}
	if q.IsConstant() {
		return fmt.Sprintf("%d", q.Min())
	}
	vals := q.Values()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// requireSameEncoding fails unless EncodeText and encodeTextRef render
// the graph to the same bytes.
func requireSameEncoding(t *testing.T, name string, g *taskgraph.Graph, c *taskgraph.Constraint) {
	t.Helper()
	if got, want := EncodeText(g, c), encodeTextRef(g, c); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeText\n%q\nreference\n%q", name, got, want)
	}
}

func TestEncodeTextMatchesReference(t *testing.T) {
	// Chains shaped like the chain-sweep workload's.
	for i := int64(0); i < 800; i++ {
		g, c, err := graphgen.Random(graphgen.Config{
			Seed: 7*1_000_003 + i, MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameEncoding(t, fmt.Sprintf("chain %d", i), g, &c)
		requireTextRoundTrip(t, fmt.Sprintf("chain %d", i), g, &c)
	}

	for _, name := range []string{"mp3.txt", "camera.txt"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		g, c, err := DecodeText(data)
		if err != nil {
			t.Fatal(err)
		}
		requireSameEncoding(t, name, g, c)
		requireTextRoundTrip(t, name, g, c)
	}

	// Hand-built graphs reach what no text document produces: multi-byte
	// and invalid UTF-8 names and extreme values.
	big := ratio.MustNew(math.MaxInt64, math.MaxInt64-1)
	type task struct {
		name string
		wcrt ratio.Rat
	}
	cases := []struct {
		name  string
		tasks []task
		bufs  []taskgraph.Buffer
		con   *taskgraph.Constraint
	}{
		{name: "empty"},
		{name: "empty with constraint", con: &taskgraph.Constraint{Task: "x", Period: ratio.FromInt(1)}},
		{name: "zero-value period", tasks: []task{{"a", ratio.FromInt(1)}}, con: &taskgraph.Constraint{Task: "a"}},
		{
			name:  "cap and bytes unset, nil constraint",
			tasks: []task{{"a", ratio.MustNew(1, 3)}, {"b", ratio.FromInt(2)}},
			bufs:  []taskgraph.Buffer{{Producer: "a", Consumer: "b", Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(3)}},
		},
		{
			name:  "cap only",
			tasks: []task{{"a", ratio.FromInt(1)}, {"b", ratio.FromInt(1)}},
			bufs:  []taskgraph.Buffer{{Producer: "a", Consumer: "b", Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1), Capacity: 9}},
			con:   &taskgraph.Constraint{Task: "b", Period: ratio.MustNew(7, 2)},
		},
		{
			name:  "bytes only, zero member in a set",
			tasks: []task{{"a", ratio.FromInt(1)}, {"b", ratio.FromInt(1)}},
			bufs:  []taskgraph.Buffer{{Producer: "a", Consumer: "b", Prod: taskgraph.MustQuanta(4), Cons: taskgraph.MustQuanta(0, 2, 4), ContainerBytes: 4}},
			con:   &taskgraph.Constraint{Task: "b", Period: ratio.FromInt(1)},
		},
		{
			name:  "extremes",
			tasks: []task{{"a", big}, {"b", ratio.MustNew(1, math.MaxInt64)}, {"c", ratio.FromInt(math.MaxInt64)}},
			bufs: []taskgraph.Buffer{
				{Producer: "a", Consumer: "b", Prod: taskgraph.MustQuanta(math.MaxInt64), Cons: taskgraph.MustQuanta(0, 1, math.MaxInt64),
					Capacity: math.MaxInt64, ContainerBytes: math.MaxInt64},
				{Producer: "b", Consumer: "c", Prod: taskgraph.MustQuanta(math.MaxInt64-1, math.MaxInt64), Cons: taskgraph.MustQuanta(1), Capacity: 1, ContainerBytes: 1},
			},
			con: &taskgraph.Constraint{Task: "c", Period: big},
		},
		{
			name:  "multi-byte and invalid UTF-8 names",
			tasks: []task{{"ψ→ü", ratio.FromInt(1)}, {"\xff\xfe", ratio.FromInt(1)}, {"->\x00{1,2}", ratio.FromInt(1)}},
			bufs: []taskgraph.Buffer{
				{Producer: "ψ→ü", Consumer: "\xff\xfe", Prod: taskgraph.MustQuanta(1, 2), Cons: taskgraph.MustQuanta(3)},
				{Producer: "\xff\xfe", Consumer: "->\x00{1,2}", Prod: taskgraph.MustQuanta(5), Cons: taskgraph.MustQuanta(5)},
			},
			con: &taskgraph.Constraint{Task: "->\x00{1,2}", Period: ratio.MustNew(1, 44100)},
		},
		{
			name:  "document larger than the stack scratch",
			tasks: []task{{strings.Repeat("v", 700), ratio.FromInt(1)}, {strings.Repeat("w", 700), ratio.FromInt(1)}},
			bufs: []taskgraph.Buffer{{Producer: strings.Repeat("v", 700), Consumer: strings.Repeat("w", 700),
				Prod: taskgraph.MustQuanta(1, 2, 3, 4, 5, 6, 7, 8), Cons: taskgraph.MustQuanta(8)}},
		},
	}
	for _, tc := range cases {
		g := taskgraph.New()
		for _, tk := range tc.tasks {
			if _, err := g.AddTask(tk.name, tk.wcrt); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for _, b := range tc.bufs {
			if _, err := g.AddBuffer(b); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		requireSameEncoding(t, tc.name, g, tc.con)
		if tc.con == nil || tc.con.Validate(g) == nil {
			requireTextRoundTrip(t, tc.name, g, tc.con)
		}
	}

	// A name holding white space or '#' would split or end its line, so
	// no graph can hold one and no document decodes to one.
	for _, name := range []string{"a b", "x#y", "#", "tab\t", "nl\n", "nbsp\u00a0", "ls\u2028", "nel\u0085", "ideo\u3000"} {
		if _, err := taskgraph.New().AddTask(name, ratio.FromInt(1)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("AddTask(%q) = %v, want an error naming the task", name, err)
		}
		doc := fmt.Sprintf(`{"tasks":[{"name":%q,"wcrt":"1"}],"buffers":[]}`, name)
		if _, _, err := Decode([]byte(doc)); err == nil || !strings.Contains(err.Error(), "white space or '#'") {
			t.Errorf("Decode of task %q: %v, want the name rejected", name, err)
		}
	}
}

// requireTextRoundTrip fails unless the text encoding of the graph decodes
// to the same graph: the same tasks and buffers in the same order, the
// same quanta, capacities and container sizes, and the same constraint.
// Buffer names are not compared: the text grammar does not carry them, so
// every decoded buffer takes its default name.
func requireTextRoundTrip(t *testing.T, name string, g *taskgraph.Graph, c *taskgraph.Constraint) {
	t.Helper()
	text := EncodeText(g, c)
	g2, c2, err := DecodeText(text)
	if err != nil {
		t.Fatalf("%s: decoding the encoded graph: %v\n%s", name, err, text)
	}
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: round trip changed %s: %v, want %v\n%s", name, what, got, want, text)
	}
	if len(g2.Tasks()) != len(g.Tasks()) || len(g2.Buffers()) != len(g.Buffers()) {
		fail("shape", [2]int{len(g2.Tasks()), len(g2.Buffers())}, [2]int{len(g.Tasks()), len(g.Buffers())})
	}
	for i, tk := range g.Tasks() {
		if got := g2.Tasks()[i]; got.Name != tk.Name || !got.WCRT.Equal(tk.WCRT) {
			fail(fmt.Sprintf("task %d", i), *got, *tk)
		}
	}
	for i, b := range g.Buffers() {
		got := g2.Buffers()[i]
		if got.Producer != b.Producer || got.Consumer != b.Consumer || !got.Prod.Equal(b.Prod) || !got.Cons.Equal(b.Cons) ||
			got.Capacity != b.Capacity || got.ContainerBytes != b.ContainerBytes {
			fail(fmt.Sprintf("buffer %d", i), *got, *b)
		}
	}
	if (c == nil) != (c2 == nil) || c != nil && (c2.Task != c.Task || !c2.Period.Equal(c.Period)) {
		fail("constraint", c2, c)
	}
}

// FuzzEncodeTextMatchesReference holds EncodeText to the reference
// encoder on every graph Decode accepts from a fuzzed JSON document, and
// checks that the text it writes decodes back to the same graph. JSON
// reaches names no text document holds (escaped control characters,
// invalid UTF-8) and the full int64 range of quanta and options; names
// with white space or '#' must be rejected.
func FuzzEncodeTextMatchesReference(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"name":"a","wcrt":"1"},{"name":"b","wcrt":"1/3"}],"buffers":[{"producer":"a","consumer":"b","prod":[1],"cons":[2,3]}]}`))
	f.Add([]byte(`{"tasks":[{"name":"a b","wcrt":"9223372036854775807/9223372036854775806"},{"name":"ü�#","wcrt":"2.5"}],` +
		`"buffers":[{"producer":"a b","consumer":"ü�#","prod":[0,9223372036854775807],"cons":[9223372036854775807],` +
		`"capacity":9223372036854775807,"container_bytes":9223372036854775807}],"constraint":{"task":"ü�#","period":"1/44100"}}`))
	f.Add([]byte(`{"tasks":[{"name":"\u0000->","wcrt":"7/2"},{"name":"{1,2}","wcrt":"1"}],` +
		`"buffers":[{"name":"custom","producer":"\u0000->","consumer":"{1,2}","prod":[0,3],"cons":[3],"capacity":4}],"constraint":{"task":"{1,2}","period":"3"}}`))
	f.Add([]byte(`{"tasks":[],"buffers":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, c, err := Decode(data)
		if err != nil {
			return
		}
		requireSameEncoding(t, "decoded document", g, c)
		requireTextRoundTrip(t, "decoded document", g, c)
	})
}
