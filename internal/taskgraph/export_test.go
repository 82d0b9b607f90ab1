package taskgraph

// SmallGraph is the element count up to which names are found by a scan,
// so the external tests can build graphs on both sides of it.
const SmallGraph = smallGraph

// Indexed reports whether the graph looks its tasks and buffers up in a
// name index rather than by a scan.
func (g *Graph) Indexed() (tasks, buffers bool) { return g.taskIdx != nil, g.bufferIdx != nil }
