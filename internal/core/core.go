// Package core is the simulator facade: it owns the full-system
// configuration (the paper's Table I, plus the Zen4 variant of Fig. 17),
// builds replacement policies by name, and runs the two simulation modes the
// paper's methodology uses — behaviour mode for miss-rate studies and timing
// mode for IPC and power. Everything in cmd/, examples/ and the benchmark
// harness goes through this package.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"uopsim/internal/artifact"
	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/offline"
	"uopsim/internal/policy"
	"uopsim/internal/power"
	"uopsim/internal/profiles"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// Config is the full-system configuration.
type Config struct {
	Name     string
	UopCache uopcache.Config
	L1I      cache.Config
	Branch   branch.Config
	Frontend frontend.Config
	Backend  backend.Config
	Energy   power.EnergyTable
}

// DefaultConfig returns the paper's Table I (AMD Zen3-like) configuration.
func DefaultConfig() Config {
	return Config{
		Name:     "zen3",
		UopCache: uopcache.DefaultConfig(),
		L1I:      cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1},
		Branch:   branch.DefaultConfig(),
		Frontend: frontend.DefaultConfig(),
		Backend:  backend.DefaultConfig(),
		Energy:   power.DefaultTable(),
	}
}

// Zen4Config returns the larger-frontend configuration of Fig. 17: a bigger
// micro-op cache (6.75K µops on Zen4 ≈ 864 entries; we use 1024 to keep the
// set count a power of two), larger BTB and predictor, wider decode.
func Zen4Config() Config {
	c := DefaultConfig()
	c.Name = "zen4"
	c.UopCache.Entries = 1024
	c.Branch = branch.Zen4Config()
	c.Frontend.UopDeliver = 9
	c.Backend.Width = 8
	c.Backend.ROB = 320
	return c
}

// PolicyNames lists the online policies RunBehaviorByName accepts, in the
// paper's presentation order.
func PolicyNames() []string {
	return []string{"lru", "random", "srrip", "drrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys"}
}

// OfflineNames lists the offline policy names.
func OfflineNames() []string { return []string{"belady", "foo", "flack"} }

// NewPolicy constructs an online replacement policy by name. Profile-guided
// policies (thermometer, furbys) need a profile; fcfg tunes FURBYS (zero
// value = paper defaults).
func NewPolicy(name string, prof *profiles.Profile, ucCfg uopcache.Config, fcfg policy.FURBYSConfig) (uopcache.Policy, error) {
	switch name {
	case "lru":
		return policy.NewLRU(), nil
	case "random":
		return policy.NewRandom(1), nil
	case "srrip":
		return policy.NewSRRIP(), nil
	case "drrip":
		return policy.NewDRRIP(), nil
	case "ship++":
		return policy.NewSHiPPP(), nil
	case "ghrp":
		return policy.NewGHRP(), nil
	case "mockingjay":
		return policy.NewMockingjay(), nil
	case "thermometer":
		if prof == nil {
			return nil, fmt.Errorf("core: thermometer needs a profile")
		}
		return policy.NewThermometer(prof.ThermoClasses()), nil
	case "furbys":
		if prof == nil {
			return nil, fmt.Errorf("core: furbys needs a profile")
		}
		if fcfg.WeightBits == 0 {
			fcfg = policy.DefaultFURBYSConfig()
		}
		return policy.NewFURBYS(fcfg, prof.Weights(ucCfg, fcfg.WeightBits)), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
}

// TraceFor generates an application's dynamic block trace and its PW lookup
// sequence (the paper's STEPS 1–2).
func TraceFor(app string, numBlocks, input int) ([]trace.Block, []trace.PW, error) {
	tr, err := TraceForCached(app, numBlocks, input, nil)
	return tr.Blocks, tr.PWs, err
}

// Trace is an application's dynamic block trace with the output of the one
// formation pass over it: the PW lookup sequence and the per-block emit
// index (see trace.FormPWsIndexed).
type Trace struct {
	Blocks  []trace.Block
	PWs     []trace.PW
	EmitEnd []int32
}

// traceKeyVersion invalidates cached block traces whenever the generator's
// semantics or the block codec change. Bump on either.
const traceKeyVersion = 1

// TraceKey content-addresses a generated block trace: SHA-256 over the key
// version, the application's full generator specification (every parameter
// that shapes the trace, including the layout seed), the block budget, and
// the input id. Changing any generator parameter in the workload catalog
// therefore invalidates stale cache entries automatically.
func TraceKey(spec workload.Spec, numBlocks, input int) string {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		// A flat struct of scalars and strings cannot fail to marshal.
		panic("core: marshal workload spec: " + err.Error())
	}
	h := sha256.New()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceKeyVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(numBlocks))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(input))
	h.Write(hdr[:])
	h.Write(specJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// TraceForCached is TraceFor backed by a content-addressed artifact store,
// returning the emit index too: on a hit the block trace is read back
// instead of regenerated (and PW formation still runs, so the lookup
// sequence is identical either way). A nil store, a miss, or a corrupt
// entry all degrade to plain generation — the store can make a run faster,
// never different or broken.
func TraceForCached(app string, numBlocks, input int, store *artifact.Store) (Trace, error) {
	spec, err := workload.Get(app)
	if err != nil {
		return Trace{}, err
	}
	var blocks []trace.Block
	if store != nil {
		key := TraceKey(spec, numBlocks, input)
		hit, _ := store.Get("trace", key, func(r io.Reader) error {
			var derr error
			blocks, derr = trace.ReadBlocks(r)
			return derr
		})
		if !hit {
			blocks = workload.GenerateSpec(spec, numBlocks, input)
			// Best-effort: a read-only cache directory only costs the
			// benefit (the store counts the error).
			_ = store.Put("trace", key, func(w io.Writer) error {
				return trace.WriteBlocks(w, blocks)
			})
		}
	} else {
		blocks = workload.GenerateSpec(spec, numBlocks, input)
	}
	pws, emitEnd := trace.FormPWsIndexed(blocks, 0)
	return Trace{Blocks: blocks, PWs: pws, EmitEnd: emitEnd}, nil
}

// Telemetry bundles the optional observability attachments threaded into a
// run: a metrics registry receiving the run's uopcache_* and per-policy
// counters (published from the cache's own aggregates when the run ends and
// at the cache's fixed lookup interval), and a structured event sink
// receiving the cache-decision trace. The zero value disables both.
type Telemetry struct {
	Metrics *telemetry.Registry
	Events  telemetry.EventSink
}

// attach wires the attachments into a cache.
func (t Telemetry) attach(c *uopcache.Cache) {
	c.AttachMetrics(t.Metrics)
	c.SetEventSink(t.Events)
}

// BehaviorOptions tunes a behaviour-mode run.
type BehaviorOptions struct {
	// Ctx, when non-nil, cancels the offline plan solve mid-run; callers
	// that set it must discard the result when Ctx.Err() != nil afterwards
	// (the plan, and hence the replay, is then incomplete). nil = never
	// cancelled. Online policies and replays are serial and run to
	// completion regardless.
	Ctx context.Context
	// WithICache models the inclusive L1i; off = perfect icache.
	WithICache bool
	// RecordPerLookup captures each lookup's outcome (for hotness and
	// profiling analyses).
	RecordPerLookup bool
	// Telemetry attaches observability to the run (zero value = off).
	Telemetry Telemetry
	// Workers bounds the offline plan solver's fan-out when the run goes
	// through the offline machinery (0 = GOMAXPROCS, 1 = serial). Replays
	// and online policies are inherently serial and unaffected.
	Workers int
	// Prepared, when non-nil, is the shared prepared trace of this lookup
	// sequence under the run's micro-op cache geometry; it must match both
	// (see uopcache.Resolve) or the run panics. nil prepares one per run.
	Prepared *trace.PreparedTrace
	// Plans, when non-nil, caches solved FOO/FLACK keep-plans by content
	// key so warm runs skip the min-cost-flow solve. nil disables caching.
	Plans offline.PlanCache
}

// BehaviorResult is a behaviour-mode run's output.
type BehaviorResult struct {
	Stats     uopcache.Stats
	PerLookup []uopcache.ProbeResult
	// FURBYS carries FURBYS's decision-provenance counters when the
	// policy was FURBYS.
	FURBYS *policy.FURBYSStats
}

// RunBehavior drives a PW lookup sequence through the micro-op cache under
// an online policy.
func RunBehavior(pws []trace.PW, cfg Config, pol uopcache.Policy, opts BehaviorOptions) BehaviorResult {
	pt := uopcache.Resolve(cfg.UopCache, pws, opts.Prepared)
	c := uopcache.New(cfg.UopCache, pol)
	opts.Telemetry.attach(c)
	var ic *cache.Cache
	if opts.WithICache {
		ic = cache.New(cfg.L1I)
	}
	b := uopcache.NewBehavior(c, ic)
	var res BehaviorResult
	if opts.RecordPerLookup {
		res.PerLookup = make([]uopcache.ProbeResult, 0, pt.Len())
		for i, n := 0, pt.Len(); i < n; i++ {
			res.PerLookup = append(res.PerLookup, b.AccessIndexed(pt, i))
		}
		b.Flush()
		res.Stats = c.Stats
	} else {
		res.Stats = b.RunPrepared(pt)
	}
	c.Publish()
	if f, ok := pol.(*policy.FURBYS); ok {
		st := f.Stats
		res.FURBYS = &st
	}
	return res
}

// RunBehaviorByName builds the named policy (collecting a FLACK profile for
// the profile-guided ones from the same trace) and runs behaviour mode.
// Offline names (belady/foo/flack) run the offline machinery. The lookup
// sequence is prepared once and shared by the profile collection and the
// replay.
func RunBehaviorByName(name string, pws []trace.PW, cfg Config, opts BehaviorOptions) (BehaviorResult, error) {
	opts.Prepared = uopcache.Resolve(cfg.UopCache, pws, opts.Prepared)
	switch name {
	case "belady":
		r := offline.RunBelady(pws, cfg.UopCache, offlineOptions(cfg, opts))
		return BehaviorResult{Stats: r.Stats, PerLookup: r.PerLookup}, nil
	case "foo":
		r := offline.RunFOO(pws, cfg.UopCache, offlineOptions(cfg, opts))
		return BehaviorResult{Stats: r.Stats, PerLookup: r.PerLookup}, nil
	case "flack":
		r := offline.RunFLACK(pws, cfg.UopCache, offlineOptions(cfg, opts))
		return BehaviorResult{Stats: r.Stats, PerLookup: r.PerLookup}, nil
	}
	var prof *profiles.Profile
	if name == "thermometer" || name == "furbys" {
		prof = profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{
			Prepared: opts.Prepared, Plans: opts.Plans, Workers: opts.Workers,
		})
	}
	pol, err := NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
	if err != nil {
		return BehaviorResult{}, err
	}
	return RunBehavior(pws, cfg, pol, opts), nil
}

func offlineOptions(cfg Config, opts BehaviorOptions) offline.Options {
	o := offline.Options{
		Ctx:             opts.Ctx,
		RecordPerLookup: opts.RecordPerLookup,
		Metrics:         opts.Telemetry.Metrics,
		Events:          opts.Telemetry.Events,
		Workers:         opts.Workers,
		Prepared:        opts.Prepared,
		Plans:           opts.Plans,
	}
	if opts.WithICache {
		ic := cfg.L1I
		o.ICache = &ic
	}
	return o
}

// TimingResult bundles a timing run with its power breakdown.
type TimingResult struct {
	Frontend frontend.Result
	Power    power.Breakdown
	PPW      float64
}

// RunTiming drives a dynamic block trace through the full timing model
// under the given replacement policy and prices it with the energy table.
// Offline SchedulePolicy instances are bound to the cache's lookup counter
// so their plans stay aligned with the PW stream.
func RunTiming(blocks []trace.Block, cfg Config, pol uopcache.Policy) TimingResult {
	return RunTimingWith(blocks, cfg, pol, TimingOptions{})
}

// ResolveColumns returns the timing columns a run of blocks under bcfg
// reads: the attached columns when they were built over exactly this many
// blocks under bcfg, or fresh ones (one formation pass and one predictor
// pass) when nothing is attached. An attachment built for another trace or
// predictor configuration is a caller bug and panics — a timing run must
// never silently replay outcomes that describe something else.
func ResolveColumns(blocks []trace.Block, bcfg branch.Config, attached *frontend.Columns) *frontend.Columns {
	if attached == nil {
		pws, emitEnd := trace.FormPWsIndexed(blocks, 0)
		return frontend.NewColumns(blocks, pws, emitEnd, bcfg)
	}
	if attached.Blocks() != len(blocks) || attached.BranchSig() != bcfg.Sig() {
		panic(fmt.Sprintf("core: timing columns do not match the run (%d blocks, want %d; branch sig %x, want %x)",
			attached.Blocks(), len(blocks), attached.BranchSig(), bcfg.Sig()))
	}
	return attached
}

// RunTimingWith is RunTiming with attachments: observability (decision
// events stream into opts.Telemetry during the run; the cache's counters
// and the frontend_* aggregates are published into it) and the
// shared timing columns (opts.Columns, resolved by ResolveColumns). The
// policy is already built, so opts.Prepared, Plans and Workers are unused.
func RunTimingWith(blocks []trace.Block, cfg Config, pol uopcache.Policy, opts TimingOptions) TimingResult {
	cols := ResolveColumns(blocks, cfg.Branch, opts.Columns)
	tel := opts.Telemetry
	uc := uopcache.New(cfg.UopCache, pol)
	tel.attach(uc)
	if sp, ok := pol.(*offline.SchedulePolicy); ok {
		sp.BindPos(func() int { return int(uc.Stats.Lookups) })
	}
	var l1i *cache.Cache
	if !cfg.Frontend.PerfectICache {
		l1i = cache.New(cfg.L1I)
	}
	be := backend.New(cfg.Backend)
	res := frontend.New(cfg.Frontend, uc, l1i, be).Run(cols)
	uc.Publish()
	res.PublishMetrics(tel.Metrics)
	pb := power.Compute(res, cfg.Energy)
	return TimingResult{Frontend: res, Power: pb, PPW: power.PPW(res, pb)}
}

// RunTimingByName builds the named policy — online or offline — and runs
// the timing model. Profile-guided policies collect a FLACK profile from the
// same trace when prof is nil.
func RunTimingByName(name string, blocks []trace.Block, pws []trace.PW, cfg Config, prof *profiles.Profile) (TimingResult, error) {
	return RunTimingByNameWith(name, blocks, pws, cfg, prof, TimingOptions{})
}

// TimingOptions bundles a timing run's optional attachments: observability,
// the shared timing columns, and the shared prepared trace and keep-plan
// cache consumed by the offline schedule policies and profile collection.
// Prepared follows BehaviorOptions.Prepared: it must match the run, and nil
// prepares one when a policy needs it. Columns follows the same rule (see
// ResolveColumns); nil builds them per run.
type TimingOptions struct {
	Telemetry Telemetry
	Columns   *frontend.Columns
	Prepared  *trace.PreparedTrace
	Plans     offline.PlanCache
	// Workers bounds the offline plan solver's fan-out (0 = GOMAXPROCS).
	Workers int
}

// RunTimingByNameWith is RunTimingByName with the full attachment set.
// Attached columns must also have been formed into pws itself (when pws is
// given), since plan-driven policies index their plans by its positions.
func RunTimingByNameWith(name string, blocks []trace.Block, pws []trace.PW, cfg Config, prof *profiles.Profile, opts TimingOptions) (TimingResult, error) {
	if opts.Columns != nil && pws != nil && !trace.SameSequence(opts.Columns.PWs(), pws) {
		panic(fmt.Sprintf("core: timing columns were formed into another PW sequence (%d windows, want %d)",
			len(opts.Columns.PWs()), len(pws)))
	}
	// Online policies replay the block trace itself; only plan-driven
	// policies and profile collection read the prepared lookup sequence.
	prepared := func() *trace.PreparedTrace { return uopcache.Resolve(cfg.UopCache, pws, opts.Prepared) }
	sched := offline.ScheduleOptions{Workers: opts.Workers, Plans: opts.Plans}
	var pol uopcache.Policy
	switch name {
	case "belady":
		pol = offline.NewBeladySchedule(prepared())
	case "foo":
		pol = offline.NewFLACKSchedule(prepared(), cfg.UopCache, offline.Features{}, sched)
	case "flack":
		pol = offline.NewFLACKSchedule(prepared(), cfg.UopCache, offline.FLACKFeatures(), sched)
	default:
		if (name == "thermometer" || name == "furbys") && prof == nil {
			prof = profiles.CollectWith(pws, cfg.UopCache, profiles.SourceFLACK, profiles.CollectOptions{
				Prepared: prepared(), Plans: opts.Plans, Workers: opts.Workers,
			})
		}
		p, err := NewPolicy(name, prof, cfg.UopCache, policy.FURBYSConfig{})
		if err != nil {
			return TimingResult{}, err
		}
		pol = p
	}
	return RunTimingWith(blocks, cfg, pol, opts), nil
}

// MissReduction is the paper's headline metric: the relative reduction in
// micro-op-level misses versus a baseline (positive = better).
func MissReduction(baseline, other uopcache.Stats) float64 {
	if baseline.UopsMissed == 0 {
		return 0
	}
	return (float64(baseline.UopsMissed) - float64(other.UopsMissed)) / float64(baseline.UopsMissed)
}
