package uopcache_test

import (
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// lookupProbe is an event sink that reads the registry's lookup counter when
// the event of lookup number at arrives. Sinks run on the run's own
// goroutine, so the read sees exactly what the cache had published by then.
type lookupProbe struct {
	reg  *telemetry.Registry
	at   uint64
	seen uint64
	hit  bool
}

func (p *lookupProbe) Emit(ev telemetry.Event) {
	if ev.Seq == p.at && !p.hit {
		p.seen, p.hit = p.reg.Counter("uopcache_lookups_total").Value(), true
	}
}

// TestLongRunPublishesMidRun checks that a metered run longer than the
// publish interval shows its counters before it ends: the cache publishes by
// itself every PublishEvery lookups, and the owner's final Publish brings
// the counters level with Stats.
func TestLongRunPublishesMidRun(t *testing.T) {
	cfg := tinyConfig()
	n := 2*uopcache.PublishEvery + 100
	pws := make([]trace.PW, n)
	for i := range pws {
		pws[i] = pw(uint64(0x40*(i%97+1)), 8)
	}
	reg := telemetry.NewRegistry()
	c := uopcache.New(cfg, policy.NewLRU())
	c.AttachMetrics(reg)
	probe := &lookupProbe{reg: reg, at: uopcache.PublishEvery + 1}
	c.SetEventSink(probe)
	st := uopcache.NewBehavior(c, nil).RunPrepared(uopcache.Prepare(cfg, pws))
	if !probe.hit {
		t.Fatalf("no event for lookup %d", probe.at)
	}
	// The publish at lookup PublishEvery covers the lookups before it.
	if probe.seen != uopcache.PublishEvery-1 {
		t.Errorf("mid-run uopcache_lookups_total = %d, want %d", probe.seen, uopcache.PublishEvery-1)
	}
	lookups := reg.Counter("uopcache_lookups_total")
	if got := lookups.Value(); got != 2*uopcache.PublishEvery-1 {
		t.Errorf("before the final publish uopcache_lookups_total = %d, want %d", got, 2*uopcache.PublishEvery-1)
	}
	c.Publish()
	if got := lookups.Value(); got != st.Lookups {
		t.Errorf("after the final publish uopcache_lookups_total = %d, want Stats.Lookups %d", got, st.Lookups)
	}
	if got := reg.Histogram("uopcache_lookup_uops").Count(); got != st.Lookups {
		t.Errorf("uopcache_lookup_uops count = %d, want %d", got, st.Lookups)
	}
}

// TestResetStatsKeepsMetrics checks that metrics count across ResetStats:
// the counters stay the total of everything the cache did, while Stats
// restarts from zero.
func TestResetStatsKeepsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newTiny()
	c.AttachMetrics(reg)
	for i := 0; i < 3; i++ {
		c.Lookup(pw(0x100, 8))
	}
	c.ResetStats()
	c.Lookup(pw(0x100, 8))
	c.Publish()
	if c.Stats.Lookups != 1 {
		t.Errorf("Stats.Lookups = %d after reset and one lookup, want 1", c.Stats.Lookups)
	}
	if got := reg.Counter("uopcache_lookups_total").Value(); got != 4 {
		t.Errorf("uopcache_lookups_total = %d, want all 4 lookups", got)
	}
	if got := reg.Counter("uopcache_misses_total").Value(); got != 4 {
		t.Errorf("uopcache_misses_total = %d, want 4", got)
	}
}

// TestPolicyMetricName checks the per-policy family's name mangling into
// the metric alphabet.
func TestPolicyMetricName(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := uopcache.New(tinyConfig(), policy.NewSHiPPP())
	c.AttachMetrics(reg)
	c.Insert(pw(0x100, 8))
	c.Lookup(pw(0x100, 8))
	c.Publish()
	if got := reg.Counter("policy_ship___hits_total").Value(); got != 1 {
		t.Errorf("policy_ship___hits_total = %d, want 1", got)
	}
	if got := reg.Counter("policy_ship___inserts_total").Value(); got != 1 {
		t.Errorf("policy_ship___inserts_total = %d, want 1", got)
	}
}

// TestPerfectHitsSkipPolicy checks that lookups served by the timing
// model's perfect-cache switch count as cache hits but not as policy hits,
// since they never reach the policy.
func TestPerfectHitsSkipPolicy(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newTiny()
	c.AttachMetrics(reg)
	c.Insert(pw(0x100, 8))
	c.Lookup(pw(0x100, 8))
	c.NotePerfectHit(pw(0x200, 8))
	c.Publish()
	if got := reg.Counter("uopcache_full_hits_total").Value(); got != 2 {
		t.Errorf("uopcache_full_hits_total = %d, want 2", got)
	}
	if got := reg.Counter("policy_lru_hits_total").Value(); got != 1 {
		t.Errorf("policy_lru_hits_total = %d, want only the real lookup's 1", got)
	}
}
