package mp3

import (
	"testing"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func TestFrameBytes(t *testing.T) {
	cases := []struct {
		bitrate, rate int64
		want          int64
	}{
		// 48 kHz divides 144·bitrate for all standard rates.
		{320, 48000, 960},
		{32, 48000, 96},
		{128, 48000, 384},
		{160, 48000, 480},
		// 44.1 kHz does not divide: the conservative (padded) size.
		{128, 44100, 418},
	}
	for _, c := range cases {
		got, err := FrameBytes(c.bitrate, c.rate)
		if err != nil {
			t.Fatalf("FrameBytes(%d, %d): %v", c.bitrate, c.rate, err)
		}
		if got != c.want {
			t.Errorf("FrameBytes(%d, %d) = %d, want %d", c.bitrate, c.rate, got, c.want)
		}
	}
	if _, err := FrameBytes(0, 48000); err == nil {
		t.Error("zero bitrate accepted")
	}
	if _, err := FrameBytes(128, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestFrameSizes(t *testing.T) {
	q := FrameSizes()
	if q.Len() != len(Bitrates) {
		t.Errorf("FrameSizes has %d members, want %d", q.Len(), len(Bitrates))
	}
	if q.Min() != 96 || q.Max() != 960 {
		t.Errorf("range [%d, %d], want [96, 960]", q.Min(), q.Max())
	}
	// At 48 kHz every size is 3 bytes per kbit/s.
	for _, br := range Bitrates {
		if !q.Contains(3 * br) {
			t.Errorf("size %d for bitrate %d missing", 3*br, br)
		}
	}
}

func TestGraphMatchesFigure5(t *testing.T) {
	g, err := Graph()
	if err != nil {
		t.Fatal(err)
	}
	tasks, buffers, err := g.Chain()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{TaskBR, TaskMP3, TaskSRC, TaskDAC}
	for i, w := range wantOrder {
		if tasks[i].Name != w {
			t.Errorf("chain[%d] = %s, want %s", i, tasks[i].Name, w)
		}
	}
	if buffers[0].Prod.Max() != BlockBytes || buffers[0].Cons.Max() != MaxFrameBytes {
		t.Errorf("buffer 1 quanta: %v / %v", buffers[0].Prod, buffers[0].Cons)
	}
	if buffers[1].Prod.Max() != FrameSamples || buffers[1].Cons.Max() != SRCIn {
		t.Errorf("buffer 2 quanta: %v / %v", buffers[1].Prod, buffers[1].Cons)
	}
	if buffers[2].Prod.Max() != SRCOut || buffers[2].Cons.Max() != 1 {
		t.Errorf("buffer 3 quanta: %v / %v", buffers[2].Prod, buffers[2].Cons)
	}
	names := BufferNames()
	for i, b := range buffers {
		if b.DefaultName() != names[i] {
			t.Errorf("buffer %d name %q, want %q", i, b.DefaultName(), names[i])
		}
	}
	// Response times are the paper's.
	want := WCRTs()
	for _, task := range tasks {
		if !task.WCRT.Equal(want[task.Name]) {
			t.Errorf("κ(%s) = %v, want %v", task.Name, task.WCRT, want[task.Name])
		}
	}
}

func TestConstraintIs44100Hz(t *testing.T) {
	c := Constraint()
	if c.Task != TaskDAC {
		t.Errorf("constraint on %s, want %s", c.Task, TaskDAC)
	}
	if !c.Period.Equal(ratio.MustNew(1, 44100)) {
		t.Errorf("period %v, want 1/44100", c.Period)
	}
	g, err := Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(g); err != nil {
		t.Errorf("constraint invalid on its own graph: %v", err)
	}
}

func TestWCRTValues(t *testing.T) {
	w := WCRTs()
	// 51.2 ms = 32/625 s, etc.
	if !w[TaskBR].Equal(ratio.MustNew(32, 625)) {
		t.Errorf("κ(vBR) = %v", w[TaskBR])
	}
	if f := w[TaskMP3].Float64() * 1000; f != 24 {
		t.Errorf("κ(vMP3) = %v ms", f)
	}
	if f := w[TaskSRC].Float64() * 1000; f != 10 {
		t.Errorf("κ(vSRC) = %v ms", f)
	}
}

func TestGraphWithFrameQuantaConstant(t *testing.T) {
	g, err := GraphWithFrameQuanta(taskgraph.MustQuanta(960))
	if err != nil {
		t.Fatal(err)
	}
	b := g.BufferByName(TaskBR + "->" + TaskMP3)
	if !b.Cons.IsConstant() || b.Cons.Max() != 960 {
		t.Errorf("constant-quanta graph has %v", b.Cons)
	}
}
