package uopsim

import (
	"fmt"
	"testing"

	"uopsim/internal/cache"
	"uopsim/internal/uopcache"
)

// TestRealTraceReplayZeroAllocs is the run-time allocation gate on a real
// trace: a generated kafka trace replayed through every online policy, with
// no L1i and with the 2 KiB inclusive L1i that puts Cache.InvalidateLine
// on the path, allocates nothing once one replay has warmed the cache.
func TestRealTraceReplayZeroAllocs(t *testing.T) {
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
				b := uopcache.NewBehavior(c, ic)
				b.RunPrepared(pt) // warm
				c.ResetStats()
				if allocs := testing.AllocsPerRun(1, func() { b.RunPrepared(pt) }); allocs != 0 {
					t.Errorf("warm replay allocated %.0f times per run, want 0", allocs)
				}
				if withL1I && c.Stats.Invalidations == 0 {
					t.Error("no invalidations: InvalidateLine was never on the path")
				}
			})
		}
	}
}
