package offline

import (
	"math/rand"
	"slices"
	"testing"
)

// randomSegment draws a per-set request sequence over ids distinct
// windows with sizes 1..3 entries.
func randomSegment(rng *rand.Rand, m, ids int) []fooRequest {
	size := make([]int32, ids)
	for i := range size {
		size[i] = int32(1 + rng.Intn(3))
	}
	reqs := make([]fooRequest, m)
	for i := range reqs {
		id := rng.Intn(ids)
		reqs[i] = fooRequest{pos: int32(i), id: uint64(id), size: size[id], cost: 6*size[id] - int32(rng.Intn(3))}
	}
	return reqs
}

// TestFittingSegmentSkipMatchesFlow solves segments whose intervals all fit
// both through the min-cost flow and through the skip, and requires the
// same keep decisions; segments that do not fit must not claim to.
func TestFittingSegmentSkipMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := segScratchPool.New().(*segScratch)
	fitting, other := 0, 0
	for iter := 0; iter < 2000; iter++ {
		ways := 1 + rng.Intn(8)
		reqs := randomSegment(rng, 2+rng.Intn(60), 1+rng.Intn(6))
		for _, model := range []CostModel{CostOHR, CostBHR, CostVC} {
			if !sc.collect(reqs, model) {
				continue
			}
			flowDec := &Decisions{Keep: make([]bool, len(reqs))}
			sc.solve(reqs, ways, flowDec)
			if !sc.fits(ways) {
				// Some inner edge is overloaded, so no flow can keep
				// every interval spanning it.
				other++
				if !slices.ContainsFunc(sc.intervals, func(iv interval) bool { return !flowDec.Keep[iv.from] }) {
					t.Fatalf("iter %d %s ways %d: segment does not fit but the flow kept every interval", iter, model, ways)
				}
				continue
			}
			fitting++
			skipDec := &Decisions{Keep: make([]bool, len(reqs))}
			solveSegment(reqs, ways, model, skipDec)
			if !slices.Equal(flowDec.Keep, skipDec.Keep) {
				t.Fatalf("iter %d %s ways %d: flow keeps %v, skip keeps %v", iter, model, ways, flowDec.Keep, skipDec.Keep)
			}
		}
	}
	if fitting == 0 || other == 0 {
		t.Fatalf("draws exercised %d fitting and %d non-fitting segments; want both", fitting, other)
	}
}
