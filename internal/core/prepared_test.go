package core_test

import (
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/artifact"
	"uopsim/internal/core"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// TestPreparedBehaviorEquivalence: a replay over a caller-attached prepared
// trace (the way every campaign cell runs) equals a replay that prepares its
// own, for every policy name, per-lookup records included, with the
// keep-plan cache serving the attached runs' FOO/FLACK solves. It is the
// guard behind the byte-identical-CSV contract of sharing one prepared
// trace across cells.
func TestPreparedBehaviorEquivalence(t *testing.T) {
	cfg := core.DefaultConfig()
	_, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := uopcache.Prepare(cfg.UopCache, pws)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plans := offline.NewPlanStore(store)
	names := append(core.PolicyNames(), core.OfflineNames()...)
	for _, name := range names {
		for _, record := range []bool{false, true} {
			built, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{RecordPerLookup: record})
			if err != nil {
				t.Fatalf("%s (built): %v", name, err)
			}
			attached, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{
				RecordPerLookup: record, Prepared: pt, Plans: plans,
			})
			if err != nil {
				t.Fatalf("%s (attached): %v", name, err)
			}
			if !reflect.DeepEqual(built, attached) {
				t.Errorf("%s (record=%v): attached run diverged:\nbuilt:    %+v\nattached: %+v",
					name, record, built.Stats, attached.Stats)
			}
		}
	}
	// foo/flack and the profile-guided policies solve twice per record
	// mode: the plan cache must have stored and then served those plans.
	if st := store.Stats()["plan"]; st.Hits == 0 || st.Misses == 0 {
		t.Errorf("plan cache traffic = %+v, want both misses and hits", st)
	}
}

// TestMismatchedPreparedPanics: an attached prepared trace built under
// another geometry, or over another sequence, is a caller bug. Every entry
// point must panic instead of replaying over the wrong columns or silently
// preparing its own.
func TestMismatchedPreparedPanics(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, pws, err := core.TraceFor("kafka", 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg.UopCache
	other.Ways = cfg.UopCache.Ways / 2
	_, otherPWs, err := core.TraceFor("kafka", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A copy has equal contents but is not the sequence the trace was
	// prepared over.
	copied := append([]trace.PW(nil), pws...)
	mismatched := map[string]*trace.PreparedTrace{
		"geometry": uopcache.Prepare(other, pws),
		"sequence": uopcache.Prepare(cfg.UopCache, otherPWs),
		"copy":     uopcache.Prepare(cfg.UopCache, copied),
	}
	entries := map[string]func(pt *trace.PreparedTrace){
		"RunBehavior": func(pt *trace.PreparedTrace) {
			core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{Prepared: pt})
		},
		"RunBehaviorByName/flack": func(pt *trace.PreparedTrace) {
			_, _ = core.RunBehaviorByName("flack", pws, cfg, core.BehaviorOptions{Prepared: pt})
		},
		"RunBelady": func(pt *trace.PreparedTrace) {
			offline.RunBelady(pws, cfg.UopCache, offline.Options{Prepared: pt})
		},
		"CollectWith": func(pt *trace.PreparedTrace) {
			profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{Prepared: pt})
		},
		"RunTimingByNameWith/belady": func(pt *trace.PreparedTrace) {
			_, _ = core.RunTimingByNameWith("belady", blocks, pws, cfg, nil, core.TimingOptions{Prepared: pt})
		},
	}
	for kind, pt := range mismatched {
		for entry, run := range entries {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s with a %s-mismatched prepared trace did not panic", entry, kind)
						return
					}
					if msg, _ := r.(string); !strings.Contains(msg, "prepared trace does not match") {
						t.Errorf("%s (%s): unexpected panic %v", entry, kind, r)
					}
				}()
				run(pt)
			}()
		}
	}
}

// TestPreparedTimingEquivalence: by-name timing runs over an attached
// prepared trace, with the plan cache serving the solves, equal runs that
// prepare their own.
func TestPreparedTimingEquivalence(t *testing.T) {
	cfg := core.DefaultConfig()
	blocks, pws, err := core.TraceFor("kafka", 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := uopcache.Prepare(cfg.UopCache, pws)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plans := offline.NewPlanStore(store)
	for _, name := range []string{"belady", "foo", "flack", "furbys", "lru"} {
		for pass := 0; pass < 2; pass++ {
			built, err := core.RunTimingByName(name, blocks, pws, cfg, nil)
			if err != nil {
				t.Fatalf("%s (built): %v", name, err)
			}
			attached, err := core.RunTimingByNameWith(name, blocks, pws, cfg, nil, core.TimingOptions{
				Prepared: pt, Plans: plans,
			})
			if err != nil {
				t.Fatalf("%s (attached): %v", name, err)
			}
			if !reflect.DeepEqual(built, attached) {
				t.Errorf("%s (pass %d): attached timing diverged:\nbuilt:    %+v\nattached: %+v", name, pass, built, attached)
			}
		}
	}
	// The second pass of foo, flack and furbys must be served from the
	// plans the first pass stored.
	if st := store.Stats()["plan"]; st.Hits < 3 || st.Misses == 0 {
		t.Errorf("plan cache traffic = %+v, want first-pass misses and second-pass hits", st)
	}
}

// TestTraceForCachedEquivalence: the cached trace path returns bit-equal
// blocks and windows, cold and warm, and the warm read is a verified hit.
func TestTraceForCachedEquivalence(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plainBlocks, plainPWs, err := core.TraceFor("postgres", 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.TraceForCached("postgres", 3000, 2, store)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.TraceForCached("postgres", 3000, 2, store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainBlocks, cold.Blocks) || !reflect.DeepEqual(plainBlocks, warm.Blocks) {
		t.Fatal("cached blocks differ from generated blocks")
	}
	if !reflect.DeepEqual(plainPWs, cold.PWs) || !reflect.DeepEqual(plainPWs, warm.PWs) {
		t.Fatal("cached windows differ from generated windows")
	}
	st := store.Stats()["trace"]
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("trace cache stats = %+v, want 1 miss then 1 hit", st)
	}
}
