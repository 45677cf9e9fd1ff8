package sim

import "testing"

// TestRNGKnownAnswers pins the stream derivation and the three draws:
// every seeded run in the repo (fault schedules, arrivals, key draws,
// span sampling, jitter) replays from these exact values.
func TestRNGKnownAnswers(t *testing.T) {
	if got := StreamSeed(42, "ops/pred"); got != 2222118699858037888 {
		t.Fatalf("StreamSeed(42, ops/pred) = %d", got)
	}
	r := NewRNG(42, "gen/0/0")
	if got := r.Uint64(); got != 6487019680509298700 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Float64(); got != 0.9611990781494222 {
		t.Fatalf("Float64 = %v", got)
	}
	if got := r.Intn(1000); got != 696 {
		t.Fatalf("Intn(1000) = %d", got)
	}
	if got := r.Intn(0); got != 0 {
		t.Fatalf("Intn(0) = %d, want 0", got)
	}
	a, b := NewRNG(42, "a"), NewRNG(42, "b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams with different names drew the same value")
	}
}
