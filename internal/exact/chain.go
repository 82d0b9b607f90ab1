package exact

import (
	"fmt"
	"slices"

	"vrdfcap/internal/mix"
	"vrdfcap/internal/taskgraph"
)

// ChainWitness is a deadlock counterexample for a chain: per task, the
// committed quanta of its firings in order. For a middle task the k-th
// entries of In and Out belong to the same firing (the coupled choice a
// data-dependent task makes).
type ChainWitness struct {
	// In[task] are the consumption quanta per firing ("" for the source).
	In map[string][]int64
	// Out[task] are the production quanta per firing ("" for the sink).
	Out map[string][]int64
}

// pick is one coupled (consumption, production) quantum choice of a task's
// firing.
type pick struct{ qin, qout int64 }

// Row layout. A state of a chain with nb buffers and nb+1 tasks is a row
// of int64s: the data tokens of every buffer, then their space tokens,
// then per task its committed quanta and in-flight flag. Three
// bookkeeping cells follow the state: the row it was reached from, the
// task that moved and the index of the choice it committed (-1 for a
// start, which commits nothing).
const (
	taskCells = 3 // qin, qout, in-flight
	metaCells = 3 // parent row, task, choice
)

// ChainCertifier is a chain compiled for repeated deadlock-freedom checks
// at different capacity assignments. CompileChain hoists everything that
// does not depend on capacities — the chain decomposition, the coupled
// per-task quanta choices and the state-count factors — and Certify reuses
// one state arena and its index across calls, so a warm certifier probing
// a safe capacity allocates nothing. Not safe for concurrent use; compile
// one certifier per goroutine.
//
// The search is breadth-first. States are rows of one []int64 arena in
// discovery order, so the arena is also the queue, and an open-addressing
// table of row numbers under a deterministic hash dedupes them.
type ChainCertifier struct {
	tasks     []string // task names in chain order
	names     []string // per buffer: the name capacity overrides use
	compiled  []int64  // per buffer: the capacity on the compiled graph
	choices   [][]pick // per task: admissible coupled choices
	choiceEst float64  // product over tasks of 2·|choices|
	maxStates int

	// Reusable per-Certify search state.
	caps  []int64
	width int     // cells per row: state, then metaCells
	rows  []int64 // explored states in BFS order
	table []int32 // row number + 1 per slot; 0 marks an empty slot
	cur   []int64 // the state being expanded
}

// compile builds the certifier's search over a chain whose i-th buffer has
// production set prod[i] and consumption set cons[i]. maxStates <= 0
// selects the default guard of 2 million states.
func compile(prod, cons []taskgraph.QuantaSet, maxStates int) *ChainCertifier {
	if maxStates <= 0 {
		maxStates = 2_000_000
	}
	nb := len(prod)
	width := 2*nb + taskCells*(nb+1) + metaCells
	c := &ChainCertifier{
		choices:   make([][]pick, nb+1),
		choiceEst: 1,
		maxStates: maxStates,
		caps:      make([]int64, nb),
		width:     width,
		cur:       make([]int64, width),
	}
	// Per task: the admissible coupled choices (positive quanta only;
	// zero-quantum firings cannot affect stuck-state reachability).
	for i := range c.choices {
		ins, outs := []int64{0}, []int64{0}
		if i > 0 {
			ins = positive(cons[i-1])
		}
		if i < nb {
			outs = positive(prod[i])
		}
		for _, qi := range ins {
			for _, qo := range outs {
				c.choices[i] = append(c.choices[i], pick{qi, qo})
			}
		}
		c.choiceEst *= float64(2 * len(c.choices[i]))
	}
	return c
}

// CompileChain validates that g is a chain and compiles it for repeated
// certification. maxStates bounds each Certify's search (<= 0 selects the
// default of 2 million states). Capacities are not inspected here — they
// are resolved per Certify call, so an unsized graph can be compiled once
// and certified under many assignments.
func CompileChain(g *taskgraph.Graph, maxStates int) (*ChainCertifier, error) {
	tasks, buffers, err := g.Chain()
	if err != nil {
		return nil, err
	}
	prod := make([]taskgraph.QuantaSet, len(buffers))
	cons := make([]taskgraph.QuantaSet, len(buffers))
	for i, b := range buffers {
		prod[i], cons[i] = b.Prod, b.Cons
	}
	c := compile(prod, cons, maxStates)
	for _, b := range buffers {
		c.names = append(c.names, b.DefaultName())
		c.compiled = append(c.compiled, b.Capacity)
	}
	for _, t := range tasks {
		c.tasks = append(c.tasks, t.Name)
	}
	return c, nil
}

// Certify exhaustively checks the compiled chain, sized by caps, against
// every sequence of coupled per-firing quanta choices. caps overrides
// buffer capacities by name (default or custom); buffers without an entry
// use the capacity on the compiled graph. Every resolved capacity must be
// positive.
func (c *ChainCertifier) Certify(caps map[string]int64) (bool, *ChainWitness, error) {
	for name := range caps {
		if !slices.Contains(c.names, name) {
			return false, nil, fmt.Errorf("exact: capacity override for unknown buffer %q", name)
		}
	}
	for i, name := range c.names {
		c.caps[i] = c.compiled[i]
		if v, ok := caps[name]; ok {
			c.caps[i] = v
		}
		if c.caps[i] <= 0 {
			return false, nil, fmt.Errorf("exact: buffer %s has no capacity", name)
		}
	}
	stuck, err := c.run()
	if err != nil || stuck < 0 {
		return err == nil, nil, err
	}
	w := &ChainWitness{In: map[string][]int64{}, Out: map[string][]int64{}}
	for i, name := range c.tasks {
		if seq := c.picks(stuck, i, false); seq != nil {
			w.In[name] = seq
		}
		if seq := c.picks(stuck, i, true); seq != nil {
			w.Out[name] = seq
		}
	}
	return false, w, nil
}

// run searches the chain at the capacities in c.caps and returns the row
// of the first stuck state in BFS order, or -1 when no state is stuck.
func (c *ChainCertifier) run() (int, error) {
	// Refuse obviously hopeless searches up front: the state count is
	// bounded by the product of per-buffer occupancy counts and
	// per-task commitment/phase counts.
	est := c.choiceEst
	for _, z := range c.caps {
		est *= float64(z+1) * float64(z+2) / 2
	}
	if est > float64(c.maxStates) {
		return -1, fmt.Errorf("exact: chain state space (~%.3g states) exceeds the %d-state guard; use the analytical bound for graphs this large", est, c.maxStates)
	}

	nb := len(c.caps)
	st := c.cur
	c.rows = c.rows[:0]
	clear(c.table)
	// Seed: empty buffers and every task uncommitted (qin = qout = -1).
	// Tasks then commit one at a time through intermediate states, which
	// avoids an exponential seed set.
	clear(st)
	copy(st[nb:], c.caps)
	for i := range c.choices {
		st[c.task(i)], st[c.task(i)+1] = -1, -1
	}
	c.next(-1, -1, -1)
	c.keep()

	for head := 0; head*c.width < len(c.rows); head++ {
		if head >= c.maxStates {
			return -1, fmt.Errorf("exact: chain state space exceeds %d states", c.maxStates)
		}
		copy(st, c.rows[head*c.width:(head+1)*c.width])

		// If some task is uncommitted, branch its first commitment and
		// defer everything else.
		if u := c.uncommitted(); u >= 0 {
			for k, p := range c.choices[u] {
				r := c.next(head, u, k)
				r[c.task(u)], r[c.task(u)+1] = p.qin, p.qout
				c.keep()
			}
			continue
		}

		progress := false
		for i := range c.choices {
			t := c.task(i)
			qin, qout := st[t], st[t+1]
			if st[t+2] == 0 {
				// Start: needs input data and output space.
				if (i == 0 || st[i-1] >= qin) && (i == nb || st[nb+i] >= qout) {
					progress = true
					r := c.next(head, i, -1)
					if i > 0 {
						r[i-1] -= qin
					}
					if i < nb {
						r[nb+i] -= qout
					}
					r[t+2] = 1
					c.keep()
				}
				continue
			}
			// Finish: produce data, release space, recommit.
			progress = true
			for k, p := range c.choices[i] {
				r := c.next(head, i, k)
				if i > 0 {
					r[nb+i-1] += qin
				}
				if i < nb {
					r[i] += qout
				}
				r[t], r[t+1], r[t+2] = p.qin, p.qout, 0
				c.keep()
			}
		}
		if !progress {
			return head, nil
		}
	}
	return -1, nil
}

// task returns the first cell of task i's (qin, qout, in-flight) triple.
func (c *ChainCertifier) task(i int) int { return 2*len(c.caps) + taskCells*i }

// uncommitted returns the first task of the expanded state with no
// committed quanta yet, or -1.
func (c *ChainCertifier) uncommitted() int {
	for i := range c.choices {
		if c.cur[c.task(i)] < 0 {
			return i
		}
	}
	return -1
}

// next appends a copy of the expanded state as a candidate row reached
// from row parent by task's choice (-1 for a start) and returns the row
// for the caller to apply the move to; keep then files or drops it.
func (c *ChainCertifier) next(parent, task, choice int) []int64 {
	c.rows = append(c.rows, c.cur...)
	r := c.rows[len(c.rows)-c.width:]
	m := c.width - metaCells
	r[m], r[m+1], r[m+2] = int64(parent), int64(task), int64(choice)
	return r
}

// keep files the candidate row appended last, or drops it when an equal
// state is already in the arena.
func (c *ChainCertifier) keep() {
	n := len(c.rows) / c.width
	if 2*n > len(c.table) {
		c.grow()
	}
	r := c.rows[len(c.rows)-c.width:]
	m := c.width - metaCells
	mask := len(c.table) - 1
	slot := hash(r[:m]) & mask
	//vrdf:unbudgeted(linear probing ends at an empty slot: the table is kept at most half full)
	for c.table[slot] != 0 {
		j := int(c.table[slot]) - 1
		if slices.Equal(c.rows[j*c.width:][:m], r[:m]) {
			c.rows = c.rows[:len(c.rows)-c.width]
			return
		}
		slot = (slot + 1) & mask
	}
	c.table[slot] = int32(n)
}

// grow doubles the table and re-files every row but the candidate.
func (c *ChainCertifier) grow() {
	c.table = make([]int32, max(64, 2*len(c.table)))
	mask := len(c.table) - 1
	m := c.width - metaCells
	for j := 0; (j+1)*c.width < len(c.rows); j++ {
		slot := hash(c.rows[j*c.width:][:m]) & mask
		//vrdf:unbudgeted(linear probing ends at an empty slot: the table is kept at most half full)
		for c.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		c.table[slot] = int32(j + 1)
	}
}

// hash mixes a state's cells into a table index.
func hash(cells []int64) int {
	h := uint64(len(cells))
	for _, v := range cells {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	return int(mix.SplitMix64(h) >> 1)
}

// picks returns the quanta task committed on its output (out) or input
// side along the path to row, in firing order, or nil when there are
// none. Sides a task does not have hold 0 and are never reported.
func (c *ChainCertifier) picks(row, task int, out bool) []int64 {
	m := c.width - metaCells
	quantum := func(r []int64) int64 {
		if int(r[m+1]) != task || r[m+2] < 0 {
			return 0
		}
		p := c.choices[task][r[m+2]]
		if out {
			return p.qout
		}
		return p.qin
	}
	n := 0
	for j := row; j >= 0; j = int(c.rows[j*c.width+m]) {
		if quantum(c.rows[j*c.width:]) > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	seq := make([]int64, n)
	for j := row; j >= 0; j = int(c.rows[j*c.width+m]) {
		if q := quantum(c.rows[j*c.width:]); q > 0 {
			n--
			seq[n] = q
		}
	}
	return seq
}

// ChainDeadlockFree exhaustively checks a sized chain against every
// sequence of coupled per-firing quanta choices. Every buffer must have a
// positive capacity. The adversary commits a task's next (consumption,
// production) quantum pair when its previous firing finishes — the coupled
// information structure of real data-dependent tasks, where one frame
// decides both what is read and what is written.
//
// The state space is the product of the buffer occupancies and task
// commitments; a guard refuses graphs beyond ~2 million states. Callers
// probing many capacity assignments of one chain should CompileChain once
// and Certify repeatedly instead.
func ChainDeadlockFree(g *taskgraph.Graph, maxStates int) (bool, *ChainWitness, error) {
	c, err := CompileChain(g, maxStates)
	if err != nil {
		return false, nil, err
	}
	return c.Certify(nil)
}
