package uopcache

import (
	"uopsim/internal/cache"
	"uopsim/internal/trace"
)

// Behavior is the trace-driven behaviour-mode simulator (the paper's
// "offline behavior simulator", Fig. 6 STEP 3): it feeds a prepared PW
// lookup sequence through the micro-op cache, modelling asynchronous
// insertion as a fixed delay measured in subsequent lookups. All
// miss-reduction numbers in the paper's evaluation are behaviour-mode
// results.
type Behavior struct {
	C *Cache
	// ICache, when non-nil, models the inclusive L1i: every PW lookup
	// touches its icache line, and L1i evictions invalidate the
	// corresponding micro-op cache windows. Nil models a perfect icache
	// (used by the paper's Fig. 10 ablation).
	ICache *cache.Cache

	delay   uint64
	lookups uint64
	// ring is the insertion queue: a fixed-capacity FIFO of in-flight
	// windows, n of them starting at ring[head]. Scheduling order is due
	// order because every insertion waits the same delay. After a drain
	// only windows scheduled by the previous delay-1 lookups remain, and a
	// lookup schedules at most one, so delay+1 slots never overflow and
	// the linear scans below stay that short.
	ring []pending
	head int
	n    int
}

type pending struct {
	pw  trace.PW
	due uint64
	// set and foot are the window's set index and storage footprint,
	// read from the prepared trace at scheduling so the completing
	// insertion does not rederive them.
	set  int
	foot int
	// cancelled marks in-flight windows whose insertion an offline
	// policy decided to skip (FLACK's late-insertion safeguard).
	cancelled bool
}

// NewBehavior wraps a cache in a behaviour-mode driver. icache may be nil
// (perfect L1i).
func NewBehavior(c *Cache, icache *cache.Cache) *Behavior {
	b := &Behavior{
		C:      c,
		ICache: icache,
		delay:  uint64(c.cfg.InsertDelay),
		ring:   make([]pending, c.cfg.InsertDelay+1),
	}
	if icache != nil {
		icache.OnEvict = func(lineAddr uint64) { c.InvalidateLine(lineAddr) }
	}
	return b
}

// AccessIndexed performs the lookup at position i of a prepared trace,
// draining any insertions that became due. On a miss or partial hit it
// schedules the (merged) window's insertion, coalescing with an already
// in-flight window for the same start address. The set index and storage
// footprint come from the trace's shared columns.
//
//simlint:hotpath
func (b *Behavior) AccessIndexed(pt *trace.PreparedTrace, i int) ProbeResult {
	pw, set := pt.At(i), pt.Set(i)
	b.lookups++
	b.drain()
	if b.ICache != nil {
		for _, line := range pw.Lines {
			b.ICache.Access(line)
		}
	}
	res := b.C.lookupAt(pw, set)
	if res.MissUops > 0 {
		b.schedule(pw, set, pt.Footprint(i))
	}
	return res
}

// InFlight reports whether an insertion for start is pending.
func (b *Behavior) InFlight(start uint64) bool {
	p := b.find(start)
	return p != nil && !p.cancelled
}

// CancelInFlight drops a pending insertion (FLACK's asynchrony handling:
// when the offline policy decides a window that is still in the decode pipe
// should not be cached, the insertion is bypassed on arrival).
func (b *Behavior) CancelInFlight(start uint64) bool {
	p := b.find(start)
	if p == nil || p.cancelled {
		return false
	}
	p.cancelled = true
	return true
}

// Flush completes all pending insertions (end of trace).
func (b *Behavior) Flush() {
	for b.n > 0 {
		b.complete(b.pop())
	}
}

// Lookups returns the number of accesses performed.
func (b *Behavior) Lookups() uint64 { return b.lookups }

// at returns the k-th oldest in-flight slot (k may equal n: the next free
// slot).
func (b *Behavior) at(k int) *pending {
	return &b.ring[(b.head+k)%len(b.ring)]
}

// find returns the in-flight entry for start, cancelled or not, or nil.
func (b *Behavior) find(start uint64) *pending {
	for k := 0; k < b.n; k++ {
		if p := b.at(k); p.pw.Start == start {
			return p
		}
	}
	return nil
}

// pop removes and returns the oldest in-flight entry.
func (b *Behavior) pop() pending {
	p := b.ring[b.head]
	b.head = (b.head + 1) % len(b.ring)
	b.n--
	return p
}

func (b *Behavior) schedule(pw trace.PW, set, foot int) {
	if p := b.find(pw.Start); p != nil {
		// Coalesce: keep the larger window (new-window formation after
		// a partial hit merges into the in-flight accumulation).
		b.C.NoteCoalescedMiss(pw)
		if pw.NumUops > p.pw.NumUops {
			p.pw = pw
			p.foot = foot
		}
		return
	}
	*b.at(b.n) = pending{pw: pw, due: b.lookups + b.delay, set: set, foot: foot}
	b.n++
}

func (b *Behavior) drain() {
	for b.n > 0 && b.ring[b.head].due <= b.lookups {
		b.complete(b.pop())
	}
}

func (b *Behavior) complete(p pending) {
	if p.cancelled {
		b.C.noteBypass(p.set, p.pw)
		return
	}
	b.C.insertAt(p.pw, p.set, p.foot)
}

// RunPrepared drives a whole prepared trace through the simulator and
// returns the final statistics. The caller's policy state is shared with
// the cache.
//
//simlint:hotpath
func (b *Behavior) RunPrepared(pt *trace.PreparedTrace) Stats {
	for i, n := 0, pt.Len(); i < n; i++ {
		b.AccessIndexed(pt, i)
	}
	b.Flush()
	return b.C.Stats
}
