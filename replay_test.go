package uopsim

import (
	"fmt"
	"testing"

	"uopsim/internal/cache"
	"uopsim/internal/telemetry"
	"uopsim/internal/uopcache"
)

// TestRealTraceReplayZeroAllocs is the run-time allocation gate on a real
// trace: a generated kafka trace replayed through every online policy, with
// no L1i and with the 2 KiB inclusive L1i that puts Cache.InvalidateLine
// on the path, allocates nothing once one replay has warmed the cache.
func TestRealTraceReplayZeroAllocs(t *testing.T) { replayZeroAllocs(t, false) }

// TestRealTraceReplayZeroAllocsWithMetrics is the same gate with a metrics
// registry attached and the counters published after every replay, as the
// run drivers do: metering counts into plain per-cache integers and
// publishing only adds into series resolved at attach time.
func TestRealTraceReplayZeroAllocsWithMetrics(t *testing.T) { replayZeroAllocs(t, true) }

func replayZeroAllocs(t *testing.T, metered bool) {
	cfg := uopcache.DefaultConfig()
	pt := uopcache.Prepare(cfg, benchTracePWs(t, "kafka", 20000))
	for _, tc := range onlinePolicies(cfg, pt) {
		for _, withL1I := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/l1i=%v", tc.name, withL1I), func(t *testing.T) {
				var ic *cache.Cache
				if withL1I {
					ic = inclusiveL1I()
				}
				c := uopcache.New(cfg, tc.mk())
				var reg *telemetry.Registry
				if metered {
					reg = telemetry.NewRegistry()
					c.AttachMetrics(reg)
				}
				b := uopcache.NewBehavior(c, ic)
				run := func() {
					b.RunPrepared(pt)
					c.Publish()
				}
				run() // warm
				c.ResetStats()
				if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
					t.Errorf("warm replay allocated %.0f times per run, want 0", allocs)
				}
				if withL1I && c.Stats.Invalidations == 0 {
					t.Error("no invalidations: InvalidateLine was never on the path")
				}
				if metered {
					// Three replays were published: the warm one and two
					// since the reset.
					if got, want := reg.Counter("uopcache_lookups_total").Value(), 3*uint64(pt.Len()); got != want {
						t.Errorf("uopcache_lookups_total = %d, want %d", got, want)
					}
				}
			})
		}
	}
}
