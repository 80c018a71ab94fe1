// Package frontend is the cycle-approximate timing model of the x86-style
// decoupled frontend in the paper's Fig. 1: blocks flow through the branch
// predictor, are formed into prediction windows, and each window is served
// either by the micro-op cache path (up to 8 micro-ops per cycle, one PW per
// cycle) or by the legacy decode path (icache fetch + 4-wide decoder with a
// 5-cycle pipeline), with a 1-cycle penalty on every path switch. Micro-op
// cache insertions complete decode-latency cycles after their triggering
// miss (the asynchronous lookup/insertion the paper studies). The frontend
// feeds the backend drain model to produce IPC, and counts every event the
// power model charges for.
//
// Prediction and window formation do not depend on the replacement policy
// or the cache geometry, so they are not simulated per run: Columns carry
// the formed windows, which block completes each, and every block's
// predictor outcome, computed once per trace and branch configuration.
package frontend

import (
	"fmt"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// Config holds the frontend timing parameters (Table I).
type Config struct {
	// DecodeWidth is the legacy decoder's micro-ops per cycle (4-wide).
	DecodeWidth int
	// DecodeLatency is the decode pipeline depth in cycles (5).
	DecodeLatency int
	// UopDeliver is the micro-op cache path bandwidth per cycle (8).
	UopDeliver int
	// SwitchPenalty is the cycle cost of switching between the micro-op
	// cache path and the legacy path (1).
	SwitchPenalty int
	// MispredictPenalty is the resteer cost of a branch misprediction.
	MispredictPenalty int
	// BTBMissPenalty is the decode-time resteer cost of a BTB miss.
	BTBMissPenalty int
	// L1ILatency, L2Latency and DRAMLatency price instruction fetch.
	L1ILatency, L2Latency, DRAMLatency int

	// Perfect-structure switches for the paper's Fig. 2 study.
	PerfectUopCache bool
	PerfectICache   bool
	PerfectBP       bool
	PerfectBTB      bool
	// DisableUopCache removes the micro-op cache entirely (the paper's
	// Fig. 13(a) baseline): every window goes down the legacy decode
	// path and nothing is inserted.
	DisableUopCache bool
	// NonInclusive breaks the L1i-inclusion requirement (the paper's
	// Section VII discussion): L1i evictions no longer invalidate
	// micro-op cache windows, effectively enlarging the instruction
	// storage at the cost of self-modifying-code complexity.
	NonInclusive bool
}

// DefaultConfig returns the paper's Zen3-like frontend timing.
func DefaultConfig() Config {
	return Config{
		DecodeWidth:       4,
		DecodeLatency:     5,
		UopDeliver:        8,
		SwitchPenalty:     1,
		MispredictPenalty: 12,
		BTBMissPenalty:    2,
		L1ILatency:        1,
		L2Latency:         16,
		DRAMLatency:       100,
	}
}

// Events counts everything the power model charges energy for.
type Events struct {
	Cycles              uint64
	DecodedUops         uint64
	DecoderActiveCycles uint64
	ICacheReads         uint64
	ICacheMisses        uint64
	L2InstrReads        uint64
	UopCacheLookups     uint64
	UopCacheHitUops     uint64
	UopCacheWrites      uint64 // entries written on insertion
	BPLookups           uint64
	BTBLookups          uint64
	Switches            uint64
	MispredictFlushes   uint64
}

// Result is a full timing run's output.
type Result struct {
	Events       Events
	Branch       branch.Stats
	UopCache     uopcache.Stats
	Backend      backend.Stats
	Instructions uint64
	Uops         uint64
	Cycles       uint64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// PublishMetrics adds the run's frontend-level aggregates into reg's
// frontend_*_total counters, so each counter sums every run published into
// reg, and sets the frontend_ipc and frontend_uop_miss_rate gauges to this
// run's values. The uopcache_* family is published by the cache itself. A
// nil reg does nothing.
func (r Result) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("frontend_cycles_total").Add(r.Cycles)
	reg.Counter("frontend_instructions_total").Add(r.Instructions)
	reg.Counter("frontend_uops_total").Add(r.Uops)
	reg.Counter("frontend_decoded_uops_total").Add(r.Events.DecodedUops)
	reg.Counter("frontend_decoder_active_cycles_total").Add(r.Events.DecoderActiveCycles)
	reg.Counter("frontend_icache_reads_total").Add(r.Events.ICacheReads)
	reg.Counter("frontend_icache_misses_total").Add(r.Events.ICacheMisses)
	reg.Counter("frontend_l2_instr_reads_total").Add(r.Events.L2InstrReads)
	reg.Counter("frontend_uopcache_lookups_total").Add(r.Events.UopCacheLookups)
	reg.Counter("frontend_uopcache_hit_uops_total").Add(r.Events.UopCacheHitUops)
	reg.Counter("frontend_uopcache_writes_total").Add(r.Events.UopCacheWrites)
	reg.Counter("frontend_bp_lookups_total").Add(r.Events.BPLookups)
	reg.Counter("frontend_btb_lookups_total").Add(r.Events.BTBLookups)
	reg.Counter("frontend_path_switches_total").Add(r.Events.Switches)
	reg.Counter("frontend_mispredict_flushes_total").Add(r.Events.MispredictFlushes)
	reg.Gauge("frontend_ipc").Set(r.IPC())
	reg.Gauge("frontend_uop_miss_rate").Set(r.UopCache.UopMissRate())
}

// Columns are a timing run's policy-independent inputs, computed once per
// block trace and branch configuration and shared by every timing run over
// them, whatever its replacement policy, cache geometry or perfect-
// structure switches: the formed PW sequence, the per-block emit index
// (trace.FormPWsIndexed), and one predictor pass's per-block outcomes and
// final statistics. Columns are immutable after NewColumns; concurrent runs
// need no locking.
type Columns struct {
	pws      []trace.PW
	emitEnd  []int32
	outcomes []branch.Outcome
	branch   branch.Stats
	sig      uint64
}

// NewColumns runs the predictor under bcfg over blocks and bundles its
// outcomes with the blocks' formed windows pws and emit index emitEnd,
// both from trace.FormPWsIndexed over the same blocks. pws is shared, not
// copied.
func NewColumns(blocks []trace.Block, pws []trace.PW, emitEnd []int32, bcfg branch.Config) *Columns {
	if len(emitEnd) != len(blocks) {
		panic(fmt.Sprintf("frontend: emit index covers %d blocks, trace has %d", len(emitEnd), len(blocks)))
	}
	out, st := branch.Outcomes(bcfg, blocks)
	return &Columns{pws: pws, emitEnd: emitEnd, outcomes: out, branch: st, sig: bcfg.Sig()}
}

// Blocks returns the number of blocks the columns describe.
func (c *Columns) Blocks() int { return len(c.emitEnd) }

// PWs returns the formed lookup sequence (read-only; shared).
func (c *Columns) PWs() []trace.PW { return c.pws }

// BranchSig returns the branch.Config fingerprint the outcomes were
// computed under.
func (c *Columns) BranchSig() uint64 { return c.sig }

// Frontend is the timing simulator. Construct with New and drive with Run.
type Frontend struct {
	cfg Config
	uc  *uopcache.Cache
	l1i *cache.Cache
	be  *backend.Backend

	inUopPath bool
	cycle     uint64
	events    Events

	// ring is the micro-op cache insertion queue: a fixed-capacity FIFO
	// of windows in the decode pipe, n of them starting at ring[head],
	// each due DecodeLatency cycles after its miss. servePW drains what is
	// due before it schedules, advances the cycle by at least 1 and
	// schedules at most one insertion, so the DecodeLatency+1 slots never
	// overflow and the coalescing scan stays that short.
	ring []pendingInsert
	head int
	n    int

	// carried misprediction/BTB penalties to charge to the next window.
	pendingPenalty int
}

type pendingInsert struct {
	pw  trace.PW
	due uint64
}

// New builds a frontend wired to its cache and backend substrate. l1i may
// be nil only when cfg.PerfectICache is set.
func New(cfg Config, uc *uopcache.Cache, l1i *cache.Cache, be *backend.Backend) *Frontend {
	f := &Frontend{
		cfg: cfg, uc: uc, l1i: l1i, be: be,
		ring: make([]pendingInsert, cfg.DecodeLatency+1),
	}
	if l1i != nil && !cfg.NonInclusive {
		l1i.OnEvict = func(lineAddr uint64) { uc.InvalidateLine(lineAddr) }
	}
	return f
}

// Run drives a whole trace's columns through the model and returns the
// result. Block i's windows are served in formation order, then its branch
// outcome's resteer penalty is carried to the next window served.
func (f *Frontend) Run(cols *Columns) Result {
	pws := cols.pws
	served := 0
	for i, end := range cols.emitEnd {
		for ; served < int(end); served++ {
			f.servePW(pws[served])
		}
		out := cols.outcomes[i]
		if out.Mispredicted() && !f.cfg.PerfectBP {
			f.pendingPenalty += f.cfg.MispredictPenalty
			f.events.MispredictFlushes++
		} else if out.BTBMiss() && !f.cfg.PerfectBTB {
			f.pendingPenalty += f.cfg.BTBMissPenalty
		}
	}
	// The end-of-trace flush.
	for ; served < len(pws); served++ {
		f.servePW(pws[served])
	}
	f.drainInserts(^uint64(0))
	f.cycle += uint64(f.be.Flush())

	var res Result
	res.Events = f.events
	// Every block consults the predictor; every branch the BTB.
	res.Events.BPLookups = uint64(cols.Blocks())
	res.Events.BTBLookups = cols.branch.Branches
	res.Events.Cycles = f.cycle
	res.Branch = cols.branch
	res.UopCache = f.uc.Stats
	res.Instructions = cols.branch.Instructions
	res.Uops = f.events.UopCacheHitUops + f.events.DecodedUops
	res.Cycles = f.cycle
	res.Backend = f.be.StatsCopy()
	return res
}

// servePW delivers one prediction window to the micro-op queue, charging
// cycles for the path it took.
//
//simlint:hotpath
func (f *Frontend) servePW(p trace.PW) {
	f.drainInserts(f.cycle)
	cycles := f.pendingPenalty
	f.pendingPenalty = 0

	var pr uopcache.ProbeResult
	switch {
	case f.cfg.DisableUopCache:
		pr = uopcache.ProbeResult{Kind: uopcache.ProbeMiss, MissUops: int(p.NumUops)}
	default:
		f.events.UopCacheLookups++
		pr = f.probeUopCache(p)
	}

	hitUops, missUops := pr.HitUops, pr.MissUops
	if hitUops > 0 {
		if !f.inUopPath {
			cycles += f.cfg.SwitchPenalty
			f.events.Switches++
			f.inUopPath = true
		}
		// One PW per cycle, up to UopDeliver micro-ops each.
		c := (hitUops + f.cfg.UopDeliver - 1) / f.cfg.UopDeliver
		if c < 1 {
			c = 1
		}
		cycles += c
		f.events.UopCacheHitUops += uint64(hitUops)
	}
	if missUops > 0 {
		if f.inUopPath || hitUops > 0 {
			cycles += f.cfg.SwitchPenalty
			f.events.Switches++
			f.inUopPath = false
		}
		// Instruction fetch for the window's lines.
		fetch := 0
		for _, line := range p.Lines {
			f.events.ICacheReads++
			switch {
			case f.cfg.PerfectICache || f.l1i == nil:
				fetch += f.cfg.L1ILatency
			case f.l1i.Access(line):
				fetch += f.cfg.L1ILatency
			default:
				f.events.ICacheMisses++
				f.events.L2InstrReads++
				fetch += f.cfg.L2Latency
			}
		}
		// Decode pipe: fill latency only when entering the legacy
		// path cold, then width-limited decode.
		decode := (missUops + f.cfg.DecodeWidth - 1) / f.cfg.DecodeWidth
		cycles += fetch + f.cfg.DecodeLatency + decode
		f.events.DecodedUops += uint64(missUops)
		f.events.DecoderActiveCycles += uint64(decode)

		if !f.cfg.PerfectUopCache && !f.cfg.DisableUopCache {
			f.scheduleInsert(p)
		}
	}
	if cycles < 1 {
		cycles = 1
	}
	f.cycle += uint64(cycles)
	extra := f.be.Supply(int(p.NumUops), int(p.NumInst), p.Start, cycles)
	f.cycle += uint64(extra)
}

// probeUopCache performs the lookup, honouring the perfect switch.
func (f *Frontend) probeUopCache(p trace.PW) uopcache.ProbeResult {
	if f.cfg.PerfectUopCache {
		// Keep the stats (and attached telemetry) meaningful under the
		// perfect switch.
		f.uc.NotePerfectHit(p)
		return uopcache.ProbeResult{Kind: uopcache.ProbeFull, HitUops: int(p.NumUops)}
	}
	return f.uc.Lookup(p)
}

// scheduleInsert queues the window's insertion decode-latency cycles ahead,
// coalescing with an in-flight window of the same start (keeping the
// larger window and the first one's due cycle).
func (f *Frontend) scheduleInsert(p trace.PW) {
	for k := 0; k < f.n; k++ {
		cur := &f.ring[(f.head+k)%len(f.ring)]
		if cur.pw.Start == p.Start {
			f.uc.NoteCoalescedMiss(p)
			if p.NumUops > cur.pw.NumUops {
				cur.pw = p
			}
			return
		}
	}
	f.ring[(f.head+f.n)%len(f.ring)] = pendingInsert{pw: p, due: f.cycle + uint64(f.cfg.DecodeLatency)}
	f.n++
}

// drainInserts completes insertions due by the given cycle, oldest first.
func (f *Frontend) drainInserts(now uint64) {
	for f.n > 0 && f.ring[f.head].due <= now {
		p := f.ring[f.head].pw
		f.head = (f.head + 1) % len(f.ring)
		f.n--
		before := f.uc.Stats.EntriesWritten
		f.uc.Insert(p)
		f.events.UopCacheWrites += f.uc.Stats.EntriesWritten - before
	}
}
