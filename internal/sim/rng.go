package sim

// RNG is a splitmix64 stream (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"): tiny, fast, and statistically solid
// for the repo's seeded decision streams — fault schedules, arrivals and
// key draws, span sampling, breaker and retry jitter. Each consumer owns a
// stream keyed by the run seed and a site name, so its draws are
// independent of how the simulation interleaves consumers and a run
// replays exactly from its seed.
type RNG struct{ state uint64 }

// NewRNG returns the stream named name under seed.
func NewRNG(seed uint64, name string) RNG { return RNG{state: StreamSeed(seed, name)} }

// StreamSeed derives the seed of the stream named name from the run seed:
// FNV-1a of the name, folded through one splitmix step.
func StreamSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	r := RNG{state: seed ^ h}
	return r.Uint64()
}

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform sample in [0, n), or 0 when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}
