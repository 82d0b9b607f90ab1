package exact

import (
	"fmt"
	"slices"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// Replayer validates adversarial pair witnesses in the timed simulator. The
// untimed search proves a deadlock exists; replaying its witness
// cross-checks the two engines against each other. Each Replay is one
// sim.Run of a timed producer–consumer pair sized to the probed capacity,
// driven by the witness sequences up to the witness's horizon.
type Replayer struct {
	prod, cons taskgraph.QuantaSet
}

// NewReplayer prepares witness replays on a timed producer–consumer pair
// ("wa" feeding "wb", both with unit response time) with the given quanta
// sets.
func NewReplayer(prod, cons taskgraph.QuantaSet) (*Replayer, error) {
	if !prod.IsValid() || !cons.IsValid() {
		return nil, fmt.Errorf("exact: invalid quanta sets")
	}
	return &Replayer{prod: prod, cons: cons}, nil
}

// Replay executes the witness against the given capacity and returns the
// simulator's result; a true counterexample ends with Outcome Deadlocked.
// Each sequence is extended past the witness by its set's maximum — the
// deadlock must strike regardless of the continuation — and the run
// continues a few firings past the witness so a deadlock cannot be masked
// by the stop condition.
func (r *Replayer) Replay(w *Witness, capacity int64) (*sim.Result, error) {
	if w == nil {
		return nil, fmt.Errorf("exact: nil witness")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("exact: capacity must be positive, got %d", capacity)
	}
	g, err := taskgraph.Pair("wa", ratio.One, "wb", ratio.One, r.prod, r.cons)
	if err != nil {
		return nil, err
	}
	buffer := g.Buffers()[0]
	buffer.Capacity = capacity
	cfg, _, err := sim.TaskGraphConfig(g, sim.Workloads{
		buffer.DefaultName(): {
			Prod: quanta.Sticky(slices.Concat(w.Prod, []int64{r.prod.Max()})...),
			Cons: quanta.Sticky(slices.Concat(w.Cons, []int64{r.cons.Max()})...),
		},
	})
	if err != nil {
		return nil, err
	}
	cfg.Stop = sim.Stop{Actor: "wb", Firings: int64(len(w.Cons)) + 10}
	return sim.Run(cfg)
}

// Deadlocks reports whether replaying the witness at the given capacity
// drives the timed simulator into a deadlock.
func (r *Replayer) Deadlocks(w *Witness, capacity int64) (bool, error) {
	res, err := r.Replay(w, capacity)
	if err != nil {
		return false, err
	}
	return res.Outcome == sim.Deadlocked, nil
}
