package core_test

import (
	"bytes"
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/telemetry"
	"uopsim/internal/uopcache"
)

// TestBehaviorTelemetryReconciles is the acceptance check for the
// instrumentation: a metered run with both a metrics registry and an
// unsampled event sink attached must produce (a) uopcache_* counters equal to
// the Stats struct field-for-field, (b) an event trace whose per-kind counts
// equal the same Stats fields, (c) histograms whose observation counts match
// the corresponding counters, and (d) policy_<name>_* counters that agree
// exactly with Stats. It covers an online behaviour run, an offline (FLACK)
// replay and a timing run. The cache is shrunk so every run exercises
// evictions and partial hits, not just cold misses.
func TestBehaviorTelemetryReconciles(t *testing.T) {
	blocks, pws, err := core.TraceFor("kafka", 8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.UopCache.Entries = 64 // force capacity pressure so evictions happen

	cases := []struct {
		name   string
		prefix string // the run's policy_<name>_ family
		run    func(core.Telemetry) uopcache.Stats
	}{
		{"lru", "policy_lru_", func(tel core.Telemetry) uopcache.Stats {
			res, err := core.RunBehaviorByName("lru", pws, cfg, core.BehaviorOptions{Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		// The offline replay enforces the keep-plan through its replay
		// policy, so its decisions are metered as offline-replay.
		{"flack", "policy_offline_replay_", func(tel core.Telemetry) uopcache.Stats {
			res, err := core.RunBehaviorByName("flack", pws, cfg, core.BehaviorOptions{Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"timing", "policy_lru_", func(tel core.Telemetry) uopcache.Stats {
			res := core.RunTimingWith(blocks, cfg, policy.NewLRU(), core.TimingOptions{Telemetry: tel})
			return res.Frontend.UopCache
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			var buf bytes.Buffer
			sink := telemetry.NewJSONLSink(&buf, 1)
			st := tc.run(core.Telemetry{Metrics: reg, Events: sink})
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if sink.Seen() != sink.Emitted() {
				t.Errorf("unsampled sink dropped events: seen %d, emitted %d", sink.Seen(), sink.Emitted())
			}
			events, err := telemetry.ReadEvents(&buf)
			if err != nil {
				t.Fatal(err)
			}
			checkReconciles(t, reg, st, telemetry.CountKinds(events), tc.prefix)
		})
	}
}

// statCounters pairs each uopcache_* counter with its Stats field.
func statCounters(st uopcache.Stats) map[string]uint64 {
	return map[string]uint64{
		"uopcache_lookups_total":         st.Lookups,
		"uopcache_full_hits_total":       st.FullHits,
		"uopcache_partial_hits_total":    st.PartialHits,
		"uopcache_misses_total":          st.Misses,
		"uopcache_uops_requested_total":  st.UopsRequested,
		"uopcache_uops_hit_total":        st.UopsHit,
		"uopcache_uops_missed_total":     st.UopsMissed,
		"uopcache_insertions_total":      st.Insertions,
		"uopcache_entries_written_total": st.EntriesWritten,
		"uopcache_bypasses_total":        st.Bypasses,
		"uopcache_evictions_total":       st.Evictions,
		"uopcache_invalidations_total":   st.Invalidations,
	}
}

// checkReconciles asserts that a fresh registry holding exactly one run
// agrees with that run's Stats and event-kind counts.
func checkReconciles(t *testing.T, reg *telemetry.Registry, st uopcache.Stats, kinds map[string]uint64, prefix string) {
	t.Helper()
	if st.Lookups == 0 || st.Misses == 0 || st.Evictions == 0 || st.PartialHits == 0 {
		t.Fatalf("run too trivial to validate reconciliation: %+v", st)
	}
	coalesced := reg.Counter("uopcache_coalesced_misses_total").Value()

	// (a) Every exposed uopcache_* counter equals its Stats field.
	for name, want := range statCounters(st) {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}

	// (b) Event-kind counts reconcile with the same Stats fields.
	kindChecks := []struct {
		kind string
		want uint64
	}{
		{telemetry.EventHit, st.FullHits},
		{telemetry.EventPartial, st.PartialHits},
		{telemetry.EventMiss, st.Misses},
		{telemetry.EventInsert, st.Insertions},
		{telemetry.EventEvict, st.Evictions},
		{telemetry.EventBypass, st.Bypasses},
		{telemetry.EventInvalidate, st.Invalidations},
		{telemetry.EventCoalesce, coalesced},
	}
	for _, c := range kindChecks {
		if got := kinds[c.kind]; got != c.want {
			t.Errorf("event kind %q count = %d, want %d", c.kind, got, c.want)
		}
	}

	// (c) Histogram observation counts match their driving counters, and
	// lookup_uops sums to the requested micro-ops.
	if got := reg.Histogram("uopcache_lookup_uops").Count(); got != st.Lookups {
		t.Errorf("uopcache_lookup_uops count = %d, want %d lookups", got, st.Lookups)
	}
	if got := reg.Histogram("uopcache_lookup_uops").Sum(); got != st.UopsRequested {
		t.Errorf("uopcache_lookup_uops sum = %d, want %d requested uops", got, st.UopsRequested)
	}
	if got := reg.Histogram("uopcache_victim_cost_uops").Count(); got != st.Evictions {
		t.Errorf("uopcache_victim_cost_uops count = %d, want %d evictions", got, st.Evictions)
	}
	if got := reg.Histogram("uopcache_victim_reuse_age_lookups").Count(); got != st.Evictions {
		t.Errorf("uopcache_victim_reuse_age_lookups count = %d, want %d evictions", got, st.Evictions)
	}

	// (d) The per-policy family: every hit reaches OnHit and every
	// insertion OnInsert; with no forced evictions, each Victim call either
	// names an evicted resident or bypasses; OnEvict also fires for
	// invalidations and same-start replacements.
	pol := func(suffix string) uint64 { return reg.Counter(prefix + suffix).Value() }
	if got, want := pol("hits_total"), st.FullHits+st.PartialHits; got != want {
		t.Errorf("%shits_total = %d, want full+partial hits %d", prefix, got, want)
	}
	if got := pol("inserts_total"); got != st.Insertions {
		t.Errorf("%sinserts_total = %d, want Insertions %d", prefix, got, st.Insertions)
	}
	if got, want := pol("victim_calls_total"), st.Evictions+pol("bypasses_total"); got != want {
		t.Errorf("%svictim_calls_total = %d, want evictions+bypasses %d", prefix, got, want)
	}
	if got := pol("bypasses_total"); got > st.Bypasses {
		t.Errorf("%sbypasses_total = %d exceeds Stats.Bypasses %d", prefix, got, st.Bypasses)
	}
	if got, min := pol("evictions_total"), st.Evictions+st.Invalidations; got < min {
		t.Errorf("%sevictions_total = %d, want >= evictions+invalidations %d", prefix, got, min)
	}
}

// TestTelemetrySumsRuns checks that runs publishing into one registry add
// up: after two behaviour runs every uopcache_* counter is the sum of both
// runs' Stats, and the policy family sums both runs' hits and insertions.
func TestTelemetrySumsRuns(t *testing.T) {
	_, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	want := map[string]uint64{}
	var hits, inserts uint64
	for _, entries := range []int{64, 128} {
		cfg := core.DefaultConfig()
		cfg.UopCache.Entries = entries
		st := core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{
			Telemetry: core.Telemetry{Metrics: reg},
		}).Stats
		if st.Evictions == 0 {
			t.Fatalf("%d entries: no evictions", entries)
		}
		for name, v := range statCounters(st) {
			want[name] += v
		}
		hits += st.FullHits + st.PartialHits
		inserts += st.Insertions
	}
	for name, w := range want {
		if got := reg.Counter(name).Value(); got != w {
			t.Errorf("%s = %d, want the two runs' sum %d", name, got, w)
		}
	}
	if got := reg.Counter("policy_lru_hits_total").Value(); got != hits {
		t.Errorf("policy_lru_hits_total = %d, want %d", got, hits)
	}
	if got := reg.Counter("policy_lru_inserts_total").Value(); got != inserts {
		t.Errorf("policy_lru_inserts_total = %d, want %d", got, inserts)
	}
}

// TestTimingTelemetryPublishes checks that a timing-mode run publishes the
// frontend_* aggregates alongside the uopcache_* counters, and that two
// timing runs into one registry sum their frontend totals while the
// frontend_ipc and frontend_uop_miss_rate gauges describe the latest run.
func TestTimingTelemetryPublishes(t *testing.T) {
	blocks, _, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	opts := core.TimingOptions{Telemetry: core.Telemetry{Metrics: reg}}
	a := core.RunTimingWith(blocks, core.DefaultConfig(), policy.NewLRU(), opts).Frontend
	b := core.RunTimingWith(blocks, core.DefaultConfig(), policy.NewSRRIP(), opts).Frontend
	if a.Cycles == 0 || b.Cycles == 0 {
		t.Fatal("timing run produced no cycles")
	}
	if a.Cycles == b.Cycles {
		t.Fatal("both runs took the same cycles; the sum check would not tell Add from Store")
	}
	totals := []struct {
		name string
		a, b uint64
	}{
		{"frontend_cycles_total", a.Cycles, b.Cycles},
		{"frontend_instructions_total", a.Instructions, b.Instructions},
		{"frontend_uops_total", a.Uops, b.Uops},
		{"frontend_decoded_uops_total", a.Events.DecodedUops, b.Events.DecodedUops},
		{"frontend_decoder_active_cycles_total", a.Events.DecoderActiveCycles, b.Events.DecoderActiveCycles},
		{"frontend_icache_reads_total", a.Events.ICacheReads, b.Events.ICacheReads},
		{"frontend_icache_misses_total", a.Events.ICacheMisses, b.Events.ICacheMisses},
		{"frontend_l2_instr_reads_total", a.Events.L2InstrReads, b.Events.L2InstrReads},
		{"frontend_uopcache_lookups_total", a.Events.UopCacheLookups, b.Events.UopCacheLookups},
		{"frontend_uopcache_hit_uops_total", a.Events.UopCacheHitUops, b.Events.UopCacheHitUops},
		{"frontend_uopcache_writes_total", a.Events.UopCacheWrites, b.Events.UopCacheWrites},
		{"frontend_bp_lookups_total", a.Events.BPLookups, b.Events.BPLookups},
		{"frontend_btb_lookups_total", a.Events.BTBLookups, b.Events.BTBLookups},
		{"frontend_path_switches_total", a.Events.Switches, b.Events.Switches},
		{"frontend_mispredict_flushes_total", a.Events.MispredictFlushes, b.Events.MispredictFlushes},
		{"uopcache_lookups_total", a.UopCache.Lookups, b.UopCache.Lookups},
	}
	for _, c := range totals {
		if got := reg.Counter(c.name).Value(); got != c.a+c.b {
			t.Errorf("%s = %d, want %d + %d", c.name, got, c.a, c.b)
		}
	}
	if got := reg.Gauge("frontend_ipc").Value(); got != b.IPC() {
		t.Errorf("frontend_ipc = %g, want the latest run's %g", got, b.IPC())
	}
	if got := reg.Gauge("frontend_uop_miss_rate").Value(); got != b.UopCache.UopMissRate() {
		t.Errorf("frontend_uop_miss_rate = %g, want the latest run's %g", got, b.UopCache.UopMissRate())
	}
}
