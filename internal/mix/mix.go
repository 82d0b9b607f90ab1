// Package mix holds the one stateless mixing function every seeded
// schedule in the tree draws from: workload quanta, injected faults, the
// fault-injecting cache backend and the resilience layer's retry jitter.
// Keeping a single definition means those schedules cannot drift apart.
package mix

// SplitMix64 is the finaliser of the SplitMix64 generator (Steele, Lea and
// Flood, 2014): a bijective avalanche mix, so hashing (seed, k) pairs
// through it yields independent-looking uniform draws without shared
// state. SplitMix64(0) is the generator's first output for seed 0.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
