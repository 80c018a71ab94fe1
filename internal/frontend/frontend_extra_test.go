package frontend_test

import (
	"testing"

	"uopsim/internal/backend"
	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

func buildWith(cfg frontend.Config) (*frontend.Frontend, *uopcache.Cache) {
	uc := uopcache.New(uopcache.DefaultConfig(), policy.NewLRU())
	l1i := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1})
	be := backend.New(backend.DefaultConfig())
	return frontend.New(cfg, uc, l1i, be), uc
}

func TestDisableUopCacheDecodesEverything(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 10000, 0)
	cfg := frontend.DefaultConfig()
	cfg.DisableUopCache = true
	f, uc := buildWith(cfg)
	res := runBlocks(f, blocks)
	if res.Events.UopCacheHitUops != 0 {
		t.Error("disabled uop cache served uops")
	}
	if res.Events.UopCacheLookups != 0 {
		t.Error("disabled uop cache was looked up")
	}
	if uc.Stats.Insertions != 0 {
		t.Error("disabled uop cache was filled")
	}
	if res.Events.DecodedUops != res.Uops {
		t.Errorf("decoded %d of %d uops", res.Events.DecodedUops, res.Uops)
	}
}

func TestDisableSlowerThanEnable(t *testing.T) {
	spec, _ := workload.Get("kafka")
	blocks := workload.GenerateSpec(spec, 20000, 0)
	on, _ := buildWith(frontend.DefaultConfig())
	resOn := runBlocks(on, blocks)
	cfg := frontend.DefaultConfig()
	cfg.DisableUopCache = true
	off, _ := buildWith(cfg)
	resOff := runBlocks(off, blocks)
	if resOff.IPC() >= resOn.IPC() {
		t.Errorf("no-uop-cache IPC %.3f >= with-cache %.3f", resOff.IPC(), resOn.IPC())
	}
}

func TestNonInclusiveNoInvalidations(t *testing.T) {
	spec, _ := workload.Get("clang")
	blocks := workload.GenerateSpec(spec, 30000, 0)
	cfg := frontend.DefaultConfig()
	cfg.NonInclusive = true
	f, uc := buildWith(cfg)
	runBlocks(f, blocks)
	if uc.Stats.Invalidations != 0 {
		t.Errorf("non-inclusive frontend invalidated %d windows", uc.Stats.Invalidations)
	}
}

func TestEmptyTrace(t *testing.T) {
	f, _ := buildWith(frontend.DefaultConfig())
	res := runBlocks(f, nil)
	if res.Instructions != 0 || res.Uops != 0 {
		t.Errorf("empty trace produced work: %+v", res)
	}
	if res.IPC() != 0 {
		t.Error("empty trace IPC should be 0")
	}
}

func TestSingleBlock(t *testing.T) {
	f, _ := buildWith(frontend.DefaultConfig())
	res := runBlocks(f, []trace.Block{{Addr: 0x1000, Bytes: 16, NumInst: 4, NumUops: 6}})
	if res.Instructions != 4 || res.Uops != 6 {
		t.Errorf("result = instructions %d uops %d", res.Instructions, res.Uops)
	}
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
}

// TestUopBandwidthMatters: raising the uop-cache delivery width speeds up a
// loop that hits the cache with wide windows.
func TestUopBandwidthMatters(t *testing.T) {
	var blocks []trace.Block
	for i := 0; i < 2000; i++ {
		blocks = append(blocks, trace.Block{
			Addr: 0x1000, Bytes: 60, NumInst: 15, NumUops: 24,
			Kind: trace.BranchUncond, Taken: true, Target: 0x1000, BranchPC: 0x1038,
		})
	}
	narrow := frontend.DefaultConfig()
	narrow.UopDeliver = 4
	fN, _ := buildWith(narrow)
	resN := runBlocks(fN, blocks)
	wide := frontend.DefaultConfig()
	wide.UopDeliver = 16
	fW, _ := buildWith(wide)
	resW := runBlocks(fW, blocks)
	if resW.IPC() <= resN.IPC() {
		t.Errorf("wide delivery IPC %.3f <= narrow %.3f", resW.IPC(), resN.IPC())
	}
}

// TestMispredictPenaltyMatters: a larger resteer penalty must lower IPC on a
// branchy workload.
func TestMispredictPenaltyMatters(t *testing.T) {
	spec, _ := workload.Get("wordpress")
	blocks := workload.GenerateSpec(spec, 15000, 0)
	cheap := frontend.DefaultConfig()
	cheap.MispredictPenalty = 2
	fC, _ := buildWith(cheap)
	resC := runBlocks(fC, blocks)
	dear := frontend.DefaultConfig()
	dear.MispredictPenalty = 30
	fD, _ := buildWith(dear)
	resD := runBlocks(fD, blocks)
	if resD.IPC() >= resC.IPC() {
		t.Errorf("30-cycle penalty IPC %.3f >= 2-cycle %.3f", resD.IPC(), resC.IPC())
	}
}
