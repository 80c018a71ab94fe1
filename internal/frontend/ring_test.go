package frontend

import (
	"testing"

	"uopsim/internal/backend"
	"uopsim/internal/cache"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// thrashWindows returns n one-entry windows over 48 distinct starts that
// share one icache line, so a 32-entry cache thrashes under LRU while the
// L1i stays warm.
func thrashWindows(n int) []trace.PW {
	shared := []uint64{0x1000}
	out := make([]trace.PW, n)
	for i := range out {
		out[i] = trace.PW{Start: 0x1000 + uint64(i%48)*16, Bytes: 16, NumInst: 4, NumUops: 4, Lines: shared}
	}
	return out
}

func newThrashFrontend(cfg Config) *Frontend {
	uc := uopcache.New(uopcache.Config{Entries: 32, Ways: 4, UopsPerEntry: 8, InsertDelay: 3}, policy.NewLRU())
	l1i := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1})
	return New(cfg, uc, l1i, backend.New(backend.DefaultConfig()))
}

// TestServePWSteadyStateZeroAllocs: once the cache, L1i and insertion ring
// are warm, serving a window — lookup, legacy fetch and decode, insertion
// scheduling, coalescing and completion — allocates nothing.
func TestServePWSteadyStateZeroAllocs(t *testing.T) {
	f := newThrashFrontend(DefaultConfig())
	seq := thrashWindows(480)
	serve := func() {
		for _, p := range seq {
			f.servePW(p)
		}
	}
	serve() // warm: fill every set and the L1i
	f.uc.ResetStats()
	if allocs := testing.AllocsPerRun(20, serve); allocs != 0 {
		t.Errorf("warm servePW allocated %.1f times per run, want 0", allocs)
	}
	if st := f.uc.Stats; st.Misses < st.Lookups*9/10 {
		t.Errorf("sequence is not miss-heavy: %d misses in %d lookups", st.Misses, st.Lookups)
	}
}

// TestInsertRingBound: the ring never holds more than DecodeLatency windows
// after a serve, however miss-heavy the stream, and coalescing keeps the
// larger window with the first one's due cycle.
func TestInsertRingBound(t *testing.T) {
	for _, lat := range []int{0, 1, 5, 9} {
		cfg := DefaultConfig()
		cfg.DecodeLatency = lat
		f := newThrashFrontend(cfg)
		for _, p := range thrashWindows(500) {
			f.servePW(p)
			if f.n > lat && f.n > 1 {
				t.Fatalf("latency %d: %d windows in flight", lat, f.n)
			}
		}
	}

	f := newThrashFrontend(DefaultConfig())
	small := trace.PW{Start: 0x2000, Bytes: 8, NumInst: 2, NumUops: 2, Lines: []uint64{0x2000}}
	large := small
	large.NumUops, large.Bytes, large.NumInst = 6, 24, 6
	f.scheduleInsert(small)
	due := f.ring[f.head].due
	f.cycle++
	f.scheduleInsert(large)
	if f.n != 1 {
		t.Fatalf("same-start insertions did not coalesce: %d in flight", f.n)
	}
	if got := f.ring[f.head]; got.pw.NumUops != 6 || got.due != due {
		t.Errorf("coalesced entry = %d uops due %d, want 6 uops due %d", got.pw.NumUops, got.due, due)
	}
	f.scheduleInsert(small)
	if got := f.ring[f.head]; got.pw.NumUops != 6 {
		t.Errorf("a smaller coalescing window replaced the larger one (%d uops)", got.pw.NumUops)
	}
	f.drainInserts(due - 1)
	if f.n != 1 {
		t.Fatal("insertion completed before its due cycle")
	}
	f.drainInserts(due)
	if f.n != 0 || f.uc.Stats.Insertions != 1 {
		t.Errorf("after the due cycle: %d in flight, %d insertions", f.n, f.uc.Stats.Insertions)
	}
}
