package serve

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// TestRequestConservation checks the request ledger over every driver
// and plane: each shard's in-window Issued requests split into completed
// (N), failed (Errors) and still-outstanding (Unfinished) ones, so
// Issued-N-Errors is never negative (collect's clamp never hides an
// over-count) and equals Unfinished; the per-shard tallies sum to the
// Result totals; and every in-window operator took exactly one path.
func TestRequestConservation(t *testing.T) {
	base := func(rate float64) Config {
		return Config{Seed: 31, Workload: Workload{Keys: 2000, ValueBytes: 128}, RatePerSec: rate}
	}
	batch := BatchConfig{MaxRequests: 8, Window: 2 * sim.Microsecond}
	ops := OpsConfig{On: true, ReturnMatches: true}
	plain := func(t *testing.T, cfg Config) *Result {
		return runOnce(t, func(k *sim.Kernel) Config { return mcnBench(k, 4, cfg) })
	}
	flapped := func(t *testing.T, cfg Config) *Result {
		res, _ := runFlapped(t, cfg)
		return res
	}
	deadShard := func(t *testing.T, cfg Config) *Result {
		return runOnce(t, func(k *sim.Kernel) Config {
			cfg := mcnBench(k, 4, cfg)
			// Nothing listens on the port: the dial is refused and every
			// request routed there fails.
			cfg.Shards[1].Port, cfg.Shards[1].Server = 9, nil
			return cfg
		})
	}
	// Each case names the total its path must move, so a case that stops
	// exercising its plane fails instead of passing vacuously.
	totals := []string{"n", "errors", "unfinished", "shed", "rerouted", "misses", "failedover"}
	cases := []struct {
		name      string
		exercises string
		run       func(*testing.T, Config) *Result
		cfg       Config
	}{
		{"open", "n", plain, base(200e3)},
		{"open-overload", "unfinished", plain, base(2e6)},
		{"closed", "n", plain, Config{Seed: 32, Workload: Workload{Keys: 2000}, ClosedWorkers: 8}},
		{"batch-overload", "n", plain, func() Config { c := base(2e6); c.Batch = batch; return c }()},
		{"dead-shard", "errors", deadShard, base(200e3)},
		{"ops", "n", plain, func() Config { c := base(200e3); c.Ops = ops; return c }()},
		{"ops-closed", "n", plain, func() Config {
			c := base(0)
			c.ClosedWorkers, c.Ops = 8, ops
			return c
		}()},
		{"admit-shed-flap", "shed", flapped, admitFlapConfig(33, admit.Shed)},
		{"admit-reroute-flap", "rerouted", flapped, admitFlapConfig(34, admit.Reroute)},
		{"admit-closed-flap", "shed", flapped, func() Config {
			c := admitFlapConfig(35, admit.Shed)
			c.RatePerSec, c.ClosedWorkers = 0, 8
			return c
		}()},
		{"repl-ops-flap", "failedover", flapped, func() Config {
			c := admitFlapConfig(36, admit.Reroute)
			c.Batch, c.Repl, c.Ops = batch, replica.Config{On: true}, ops
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(t, tc.cfg)
			var sum Result
			for _, ss := range res.PerShard {
				open := ss.Issued - ss.N - ss.Errors
				if open < 0 || open != ss.Unfinished {
					t.Errorf("shard %d: issued %d - n %d - errors %d = %d, unfinished %d",
						ss.Shard, ss.Issued, ss.N, ss.Errors, open, ss.Unfinished)
				}
				sum.N += ss.N
				sum.Errors += ss.Errors
				sum.Unfinished += ss.Unfinished
				sum.Shed += ss.Shed
				sum.Rerouted += ss.Rerouted
				sum.Misses += ss.Misses
				sum.FailedOver += ss.FailedOver
			}
			got := [7]int64{res.N, res.Errors, res.Unfinished, res.Shed, res.Rerouted, res.Misses, res.FailedOver}
			want := [7]int64{sum.N, sum.Errors, sum.Unfinished, sum.Shed, sum.Rerouted, sum.Misses, sum.FailedOver}
			if got != want {
				t.Errorf("totals %v %v, per-shard sums %v", totals, got, want)
			}
			for i, name := range totals {
				if name == tc.exercises && got[i] == 0 {
					t.Errorf("the case never moved %s:\n%s", name, res)
				}
			}
			if !tc.cfg.Ops.On {
				return
			}
			for _, f := range []struct {
				name string
				t    stats.OpTally
			}{{"multiget", res.Ops.MultiGet}, {"scan", res.Ops.Scan}, {"filter", res.Ops.Filter}, {"rmw", res.Ops.RMW}} {
				if f.t.Issued == 0 || f.t.Issued != f.t.Offloaded+f.t.Host {
					t.Errorf("%s: issued %d, offloaded %d + host %d", f.name, f.t.Issued, f.t.Offloaded, f.t.Host)
				}
			}
		})
	}
}
