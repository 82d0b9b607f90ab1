package graphgen

import (
	"testing"

	"vrdfcap/internal/capacity"
)

func TestRandomFeasibleChains(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := Defaults(seed)
		cfg.ZeroConsumption = seed%3 == 0
		g, c, err := Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, _, err := g.Chain(); err != nil {
			t.Fatalf("seed %d: invalid chain: %v", seed, err)
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("seed %d: invalid constraint: %v", seed, err)
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Valid {
			t.Errorf("seed %d: generated chain analysed infeasible: %v", seed, res.Diagnostics)
		}
		for _, b := range res.Buffers {
			if b.Capacity <= 0 {
				t.Errorf("seed %d: non-positive capacity for %s", seed, b.Buffer)
			}
		}
	}
}

func TestRandomSourceConstrained(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := Defaults(seed)
		cfg.SourceConstrained = true
		g, c, err := Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		src, err := g.Source()
		if err != nil {
			t.Fatal(err)
		}
		if c.Task != src.Name {
			t.Fatalf("seed %d: constraint on %s, want source %s", seed, c.Task, src.Name)
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Valid {
			t.Errorf("seed %d: source-constrained chain analysed infeasible: %v", seed, res.Diagnostics)
		}
	}
}

func TestRandomInfeasibleDetected(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := Defaults(seed)
		cfg.Infeasible = true
		g, c, err := Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Valid {
			t.Errorf("seed %d: deliberately infeasible chain passed the analysis", seed)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, ca, err := Random(Defaults(7))
	if err != nil {
		t.Fatal(err)
	}
	b, cb, err := Random(Defaults(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks()) != len(b.Tasks()) || ca.Task != cb.Task {
		t.Error("same seed generated different chains")
	}
	for i, ta := range a.Tasks() {
		tb := b.Tasks()[i]
		if ta.Name != tb.Name || !ta.WCRT.Equal(tb.WCRT) {
			t.Errorf("task %d differs: %v vs %v", i, ta, tb)
		}
	}
	for i, ba := range a.Buffers() {
		bb := b.Buffers()[i]
		if !ba.Prod.Equal(bb.Prod) || !ba.Cons.Equal(bb.Cons) {
			t.Errorf("buffer %d differs", i)
		}
	}
}

func TestRandomConfigValidation(t *testing.T) {
	bad := []Config{
		{MinTasks: 1, MaxTasks: 3, MaxQuantum: 4, MaxSetSize: 2},
		{MinTasks: 3, MaxTasks: 2, MaxQuantum: 4, MaxSetSize: 2},
		{MinTasks: 2, MaxTasks: 3, MaxQuantum: 0, MaxSetSize: 2},
		{MinTasks: 2, MaxTasks: 3, MaxQuantum: 4, MaxSetSize: 0},
	}
	for i, cfg := range bad {
		if _, _, err := Random(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
