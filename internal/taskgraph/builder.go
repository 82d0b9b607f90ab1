package taskgraph

import (
	"fmt"

	"vrdfcap/internal/ratio"
)

// Stage describes one task of a chain under construction.
type Stage struct {
	Name string
	WCRT ratio.Rat
}

// Link describes the buffer between consecutive chain stages: the producer's
// quanta ξ and the consumer's quanta λ. Capacity may be zero (to be
// computed).
type Link struct {
	Prod     QuantaSet
	Cons     QuantaSet
	Capacity int64
	// ContainerBytes optionally sizes one container for memory
	// reporting.
	ContainerBytes int64
}

// BuildChain constructs a chain task graph from stages and the links between
// them. len(links) must equal len(stages)-1; link i connects stage i to
// stage i+1.
func BuildChain(stages []Stage, links []Link) (*Graph, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("taskgraph: chain needs at least one stage")
	}
	if len(links) != len(stages)-1 {
		return nil, fmt.Errorf("taskgraph: %d stages need %d links, got %d",
			len(stages), len(stages)-1, len(links))
	}
	g := &Graph{
		tasks:      make([]*Task, 0, len(stages)),
		taskFree:   make([]Task, len(stages)),
		buffers:    make([]*Buffer, 0, len(links)),
		bufferFree: make([]Buffer, len(links)),
	}
	for _, s := range stages {
		if _, err := g.AddTask(s.Name, s.WCRT); err != nil {
			return nil, err
		}
	}
	for i, l := range links {
		_, err := g.AddBuffer(Buffer{
			Producer:       stages[i].Name,
			Consumer:       stages[i+1].Name,
			Prod:           l.Prod,
			Cons:           l.Cons,
			Capacity:       l.Capacity,
			ContainerBytes: l.ContainerBytes,
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Pair constructs the two-task producer–consumer graph of the paper's
// Figure 1: producer wa with production quanta prod, consumer wb with
// consumption quanta cons, one buffer between them.
func Pair(prodName string, prodWCRT ratio.Rat, consName string, consWCRT ratio.Rat, prod, cons QuantaSet) (*Graph, error) {
	return BuildChain(
		[]Stage{{prodName, prodWCRT}, {consName, consWCRT}},
		[]Link{{Prod: prod, Cons: cons}},
	)
}
