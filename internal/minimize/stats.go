package minimize

import "vrdfcap/internal/sim"

// ProbeStats is the simulation-effort counter set of a check or search;
// pass it via Options.Stats. It is sim.Effort: every probe run adds itself,
// so one instance can be shared by concurrent searches.
type ProbeStats = sim.Effort
