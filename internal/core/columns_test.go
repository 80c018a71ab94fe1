package core_test

import (
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/branch"
	"uopsim/internal/core"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// TestEmitIndexMatchesFormer: the emit index the trace's one formation pass
// records equals the per-block emission counts of a plain Former run, and
// its windows equal FormPWs, for every application.
func TestEmitIndexMatchesFormer(t *testing.T) {
	for _, app := range workload.Names() {
		tr, err := core.TraceForCached(app, 3000, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.PWs, trace.FormPWs(tr.Blocks, 0)) {
			t.Errorf("%s: indexed formation windows differ from FormPWs", app)
		}
		if len(tr.EmitEnd) != len(tr.Blocks) {
			t.Fatalf("%s: emit index covers %d of %d blocks", app, len(tr.EmitEnd), len(tr.Blocks))
		}
		f := trace.NewFormer(0)
		emitted := 0
		emit := func(trace.PW) { emitted++ }
		for i, b := range tr.Blocks {
			f.Add(b, emit)
			if int(tr.EmitEnd[i]) != emitted {
				t.Fatalf("%s: EmitEnd[%d] = %d, plain Former emitted %d", app, i, tr.EmitEnd[i], emitted)
			}
		}
		f.Flush(emit)
		if emitted != len(tr.PWs) {
			t.Errorf("%s: plain Former emitted %d windows, indexed formation %d", app, emitted, len(tr.PWs))
		}
	}
}

// TestAttachedColumnsMatchBuilt: a timing run over shared columns is
// bit-identical to one that forms and predicts on its own, under the
// perfect-structure switches, another geometry and another predictor.
func TestAttachedColumnsMatchBuilt(t *testing.T) {
	tr, err := core.TraceForCached("wordpress", 6000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*core.Config){
		"default":       func(*core.Config) {},
		"perfect-bp":    func(c *core.Config) { c.Frontend.PerfectBP = true },
		"perfect-btb":   func(c *core.Config) { c.Frontend.PerfectBTB = true },
		"perfect-uop":   func(c *core.Config) { c.Frontend.PerfectUopCache = true },
		"no-uop-cache":  func(c *core.Config) { c.Frontend.DisableUopCache = true },
		"non-inclusive": func(c *core.Config) { c.Frontend.NonInclusive = true },
		"lru@1024":      func(c *core.Config) { c.UopCache.Entries, c.UopCache.Ways = 1024, 16 },
		"zen4":          func(c *core.Config) { *c = core.Zen4Config() },
	}
	for name, apply := range variants {
		cfg := core.DefaultConfig()
		apply(&cfg)
		cols := frontend.NewColumns(tr.Blocks, tr.PWs, tr.EmitEnd, cfg.Branch)
		built := core.RunTiming(tr.Blocks, cfg, policy.NewLRU())
		attached := core.RunTimingWith(tr.Blocks, cfg, policy.NewLRU(), core.TimingOptions{Columns: cols})
		if !reflect.DeepEqual(built, attached) {
			t.Errorf("%s: attached-columns run differs from built run", name)
		}
	}
}

// TestMismatchedColumnsPanic: columns built for another block count,
// another predictor configuration or another PW sequence must panic rather
// than replay outcomes that describe something else.
func TestMismatchedColumnsPanic(t *testing.T) {
	tr, err := core.TraceForCached("kafka", 3000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cols := frontend.NewColumns(tr.Blocks, tr.PWs, tr.EmitEnd, cfg.Branch)
	zen4 := frontend.NewColumns(tr.Blocks, tr.PWs, tr.EmitEnd, branch.Zen4Config())
	copied := append([]trace.PW(nil), tr.PWs...)
	cases := map[string]func(){
		"block count": func() {
			core.RunTimingWith(tr.Blocks[:len(tr.Blocks)-1], cfg, policy.NewLRU(), core.TimingOptions{Columns: cols})
		},
		"branch config": func() {
			core.RunTimingWith(tr.Blocks, cfg, policy.NewLRU(), core.TimingOptions{Columns: zen4})
		},
		"PW sequence": func() {
			_, _ = core.RunTimingByNameWith("lru", tr.Blocks, copied, cfg, nil, core.TimingOptions{Columns: cols})
		},
	}
	for name, run := range cases {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Errorf("%s mismatch: no panic", name)
				} else if !strings.Contains(p.(string), "timing columns") {
					t.Errorf("%s mismatch: unexpected panic %v", name, p)
				}
			}()
			run()
		}()
	}
}
