// Command layers times each layer of the simulator from outside, through
// the layer's public functions, on one application's trace. It is the
// pipeline half of the campaign benchmark's traced run (see ../README.md):
// run.py starts it after the campaign runs and merges the JSON object it
// prints into the per-layer metrics.
//
// Usage:
//
//	layers -seed N -dir SCRATCH
//
// Every layer runs on kafka's trace. The seed is the generator's input
// variant (workload.GenerateSpec's input), so a held-out seed exercises a
// trace no run has tuned against. Every timing is the median of reps
// repetitions, normalised per item (block, PW or lookup); allocation
// counts are heap allocations per item of the same repetitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"uopsim/internal/artifact"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/core"
	"uopsim/internal/flow"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/power"
	"uopsim/internal/profiles"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// blocks and workers match the campaigns' -blocks and -parallel.
const (
	app     = "kafka"
	blocks  = 60000
	workers = 2
	reps    = 9
)

// policies are the nine online policies campaigns replay, under the
// metric-safe names the benchmark reports them by.
var policies = []struct{ metric, name string }{
	{"lru", "lru"}, {"random", "random"}, {"srrip", "srrip"}, {"drrip", "drrip"},
	{"shippp", "ship++"}, {"ghrp", "ghrp"}, {"mockingjay", "mockingjay"},
	{"thermometer", "thermometer"}, {"furbys", "furbys"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one layer's measurement: median wall time and heap
// allocations over the repetitions.
type sample struct {
	ns     float64
	allocs float64
}

// measure runs fn reps times (after one untimed warm-up call when warm is
// set) and returns the median duration and median allocation count.
func measure(warm bool, fn func()) sample {
	if warm {
		fn()
	}
	ns := make([]float64, reps)
	allocs := make([]float64, reps)
	var before, after runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fn()
		ns[r] = float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&after)
		allocs[r] = float64(after.Mallocs - before.Mallocs)
	}
	return sample{ns: median(ns), allocs: median(allocs)}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// planMap is an in-memory plan cache, used to hand the profile collector
// a plan that is already solved without measuring disk reads.
type planMap map[string]*offline.Decisions

func (m planMap) Load(key string) (*offline.Decisions, bool) { d, ok := m[key]; return d, ok }
func (m planMap) Store(key string, d *offline.Decisions)     { m[key] = d }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("layers", flag.ContinueOnError)
	seed := fs.Int("seed", 0, "generator input variant (the benchmark's workload seed)")
	dir := fs.String("dir", "", "scratch `DIR` for the artifact store (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("need -dir")
	}
	spec, err := workload.Get(app)
	if err != nil {
		return err
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	perItem := func(s sample, items int) (float64, float64) {
		return s.ns / float64(items), s.allocs / float64(items)
	}

	// workload: trace generation.
	var blks []trace.Block
	s := measure(false, func() { blks = workload.GenerateSpec(spec, blocks, *seed) })
	nb := len(blks)
	ns, _ := perItem(s, nb)
	put("workload.gen_ns_per_block", ns, "ns")

	// trace: PW formation and prepared columns.
	var pws []trace.PW
	s = measure(false, func() { pws = trace.FormPWs(blks, 0) })
	ns, al := perItem(s, nb)
	put("trace.form_ns_per_block", ns, "ns")
	put("trace.form_allocs_per_block", al, "allocs")
	cfg := uopcache.DefaultConfig()
	var pt *trace.PreparedTrace
	s = measure(false, func() { pt = uopcache.Prepare(cfg, pws) })
	ns, _ = perItem(s, len(pws))
	put("trace.prepare_ns_per_pw", ns, "ns")

	// artifact: the block-trace write and read paths of the content-
	// addressed store, one fresh key per repetition so every Put writes.
	store, err := artifact.Open(*dir)
	if err != nil {
		return err
	}
	key := core.TraceKey(spec, blocks, *seed)
	rep := 0
	var putErr error
	s = measure(false, func() {
		rep++
		if err := store.Put("trace", fmt.Sprintf("%s-%d", key, rep), func(w io.Writer) error {
			return trace.WriteBlocks(w, blks)
		}); err != nil {
			putErr = err
		}
	})
	if putErr != nil {
		return fmt.Errorf("artifact put: %w", putErr)
	}
	ns, _ = perItem(s, nb)
	put("artifact.put_ns_per_block", ns, "ns")
	var got []trace.Block
	var getErr error
	s = measure(false, func() {
		hit, err := store.Get("trace", key+"-1", func(r io.Reader) error {
			var derr error
			got, derr = trace.ReadBlocks(r)
			return derr
		})
		if err == nil && !hit {
			err = fmt.Errorf("miss on a written key")
		}
		if err != nil {
			getErr = err
		}
	})
	if getErr != nil {
		return fmt.Errorf("artifact get: %w", getErr)
	}
	if len(got) != nb {
		return fmt.Errorf("artifact get: read %d blocks, wrote %d", len(got), nb)
	}
	ns, _ = perItem(s, nb)
	put("artifact.get_ns_per_block", ns, "ns")

	// offline / flow: the FLACK plan solve, its codec, and Belady replay.
	reuse0, fresh0 := flow.SolverReuseStats()
	var dec *offline.Decisions
	s = measure(false, func() {
		dec = offline.ComputeDecisionsPrepared(context.Background(), pt, cfg, offline.CostVC, true, 0, workers)
	})
	ns, _ = perItem(s, len(pws))
	put("offline.solve_ns_per_pw", ns, "ns")
	reuse1, fresh1 := flow.SolverReuseStats()
	if acq := (reuse1 - reuse0) + (fresh1 - fresh0); acq > 0 {
		put("flow.solver_reuse_ratio", float64(reuse1-reuse0)/float64(acq), "ratio")
	} else {
		return fmt.Errorf("flow: the solve acquired no solver")
	}
	var enc bytes.Buffer
	if err := offline.EncodePlan(&enc, dec); err != nil {
		return err
	}
	var decodeErr error
	s = measure(false, func() {
		if _, err := offline.DecodePlan(bytes.NewReader(enc.Bytes())); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("plan decode: %w", decodeErr)
	}
	ns, _ = perItem(s, len(pws))
	put("offline.plan_decode_ns_per_pw", ns, "ns")
	var bel offline.Result
	s = measure(false, func() { bel = offline.RunBelady(pws, cfg, offline.Options{Prepared: pt}) })
	ns, _ = perItem(s, int(bel.Stats.Lookups))
	put("offline.belady_replay_ns_per_lookup", ns, "ns")

	// profiles: FLACK profile collection with the keep-plan already cached.
	plans := planMap{offline.PlanKey(pws, cfg, offline.CostVC, true, 0): dec}
	var prof *profiles.Profile
	s = measure(false, func() {
		prof = profiles.CollectWith(pws, cfg, profiles.SourceFLACK, profiles.CollectOptions{Prepared: pt, Plans: plans, Workers: workers})
	})
	ns, _ = perItem(s, len(pws))
	put("profiles.collect_ns_per_pw", ns, "ns")

	// uopcache / policy: prepared replay from a cold cache, as every
	// campaign cell runs it.
	for _, p := range policies {
		var st uopcache.Stats
		var polErr error
		s = measure(true, func() {
			pol, err := core.NewPolicy(p.name, prof, cfg, policy.FURBYSConfig{})
			if err != nil {
				polErr = err
				return
			}
			st = uopcache.NewBehavior(uopcache.New(cfg, pol), nil).RunPrepared(pt)
		})
		if polErr != nil {
			return polErr
		}
		ns, al = perItem(s, int(st.Lookups))
		put("uopcache.replay_ns_per_lookup."+p.metric, ns, "ns")
		put("uopcache.replay_allocs_per_lookup."+p.metric, al, "allocs")
	}

	// Timing model: the whole pipeline, then its branch, L1I and power
	// stages on their own.
	ccfg := core.DefaultConfig()
	var tr core.TimingResult
	s = measure(false, func() { tr = core.RunTiming(blks, ccfg, policy.NewLRU()) })
	ns, al = perItem(s, nb)
	put("core.timing_ns_per_block", ns, "ns")
	put("core.timing_allocs_per_block", al, "allocs")
	s = measure(false, func() {
		bp := branch.New(ccfg.Branch)
		for _, b := range blks {
			bp.Process(b)
		}
	})
	ns, _ = perItem(s, nb)
	put("branch.process_ns_per_block", ns, "ns")
	var lines []uint64
	for _, b := range blks {
		lines = append(lines, trace.SpanLines(b.Addr, b.Bytes)...)
	}
	s = measure(false, func() {
		l1i := cache.New(ccfg.L1I)
		for _, l := range lines {
			l1i.Access(l)
		}
	})
	ns, _ = perItem(s, len(lines))
	put("cache.access_ns_per_line", ns, "ns")
	const powerCalls = 100000
	var sink float64
	s = measure(false, func() {
		for i := 0; i < powerCalls; i++ {
			sink += power.Compute(tr.Frontend, ccfg.Energy).Total()
		}
	})
	ns, _ = perItem(s, powerCalls)
	put("power.compute_ns", ns, "ns")
	if sink <= 0 {
		return fmt.Errorf("power: non-positive energy")
	}

	fmt.Fprintf(os.Stderr, "layers: %s, %d blocks, %d PWs, input %d\n", app, nb, len(pws), *seed)
	return json.NewEncoder(stdout).Encode(out)
}
