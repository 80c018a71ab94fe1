package flow

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refSolver is the reference successive-shortest-path solver the production
// Solver must agree with edge for edge: a full Dijkstra per epoch over a
// swap-based binary heap with int64 keys, building the path tree until the
// heap drains. It is the solver every committed FOO/FLACK plan was produced
// with, kept unchanged so the differential tests and FuzzSolverVsReference
// can prove that the production solver picks exactly the same augmenting
// path in every epoch — not merely one of equal cost.
type refSolver struct {
	pot     []int64
	dist    []int64
	prevArc []int32
	distE   []uint32
	visE    []uint32
	epoch   uint32
	heap    []refPQItem
}

type refPQItem struct {
	node int32
	dist int64
}

func (s *refSolver) grow(n int) {
	if len(s.pot) >= n {
		return
	}
	s.pot = make([]int64, n)
	s.dist = make([]int64, n)
	s.prevArc = make([]int32, n)
	s.distE = make([]uint32, n)
	s.visE = make([]uint32, n)
	s.epoch = 0
}

func (s *refSolver) bump() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.distE)
		clear(s.visE)
		s.epoch = 1
	}
}

func (s *refSolver) hpush(it refPQItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *refSolver) hpop() refPQItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

func (s *refSolver) MinCostFlow(g *Graph, src, t int, maxFlow int64) Result {
	if src == t {
		return Result{}
	}
	s.grow(g.n)
	pot := s.pot[:g.n]
	clear(pot)
	dist, prevArc := s.dist, s.prevArc
	distE, visE := s.distE, s.visE
	var res Result

	for res.Flow < maxFlow {
		s.bump()
		ep := s.epoch
		dist[src] = 0
		distE[src] = ep
		s.heap = s.heap[:0]
		s.hpush(refPQItem{int32(src), 0})
		for len(s.heap) > 0 {
			it := s.hpop()
			u := int(it.node)
			if visE[u] == ep {
				continue
			}
			visE[u] = ep
			for a := g.headA[u]; a != -1; a = g.next[a] {
				if g.cap[a] <= 0 {
					continue
				}
				v := int(g.to[a])
				if visE[v] == ep {
					continue
				}
				rc := g.cost[a] + pot[u] - pot[v]
				nd := dist[u] + rc
				if distE[v] != ep || nd < dist[v] {
					dist[v] = nd
					distE[v] = ep
					prevArc[v] = a
					s.hpush(refPQItem{int32(v), nd})
				}
			}
		}
		if visE[t] != ep {
			break
		}
		for i := 0; i < g.n; i++ {
			if distE[i] == ep {
				pot[i] += dist[i]
			}
		}
		push := maxFlow - res.Flow
		for v := t; v != src; {
			a := prevArc[v]
			if g.cap[a] < push {
				push = g.cap[a]
			}
			v = int(g.to[a^1])
		}
		for v := t; v != src; {
			a := prevArc[v]
			g.cap[a] -= push
			g.cap[a^1] += push
			res.Cost += push * g.cost[a]
			v = int(g.to[a^1])
		}
		res.Flow += push
	}
	return res
}

func (s *refSolver) SolveSupplies(g *Graph, supply []int64) (Result, error) {
	if len(supply) != g.n {
		return Result{}, fmt.Errorf("flow: supply vector length %d != %d nodes", len(supply), g.n)
	}
	var total, balance int64
	for _, v := range supply {
		balance += v
		if v > 0 {
			total += v
		}
	}
	if balance != 0 {
		return Result{}, fmt.Errorf("flow: supplies sum to %d, want 0", balance)
	}
	src, t := g.n, g.n+1
	g.n += 2
	g.headA = append(g.headA, -1, -1)
	for i, sup := range supply {
		if sup > 0 {
			g.AddEdge(src, i, sup, 0)
		} else if sup < 0 {
			g.AddEdge(i, t, -sup, 0)
		}
	}
	res := s.MinCostFlow(g, src, t, math.MaxInt64)
	if res.Flow != total {
		return res, fmt.Errorf("flow: infeasible, routed %d of %d", res.Flow, total)
	}
	return res, nil
}

// diffEdge is one edge of a differential-test graph.
type diffEdge struct {
	u, v      int
	cap, cost int64
}

func buildGraph(n int, edges []diffEdge) *Graph {
	g := NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e.u, e.v, e.cap, e.cost)
	}
	return g
}

// sameFlows fails t unless the two solved graphs route identical flow on
// every edge, which holds only if every epoch augmented along the same path.
func sameFlows(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	for id := 0; id < want.NumEdges(); id++ {
		if got.Flow(id) != want.Flow(id) {
			t.Fatalf("%s: edge %d carries %d, reference %d", label, id, got.Flow(id), want.Flow(id))
		}
	}
}

// randomGraph draws a graph whose costs come from a tiny range, so equal
// reduced distances — the heap ties the pop-order contract is about — are
// everywhere.
func randomGraph(rng *rand.Rand) (int, []diffEdge) {
	n := 2 + rng.Intn(40)
	edges := make([]diffEdge, 0, 4*n)
	for i := 0; i < 1+rng.Intn(4*n); i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, diffEdge{u, v, int64(1 + rng.Intn(4)), int64(rng.Intn(3))})
	}
	return n, edges
}

// fooGraph draws a FOO-shaped instance: a chain of zero-cost inner edges
// of capacity ways, plus one costed outer edge per interval, carrying the
// interval's size as supply at its start and demand at its end.
func fooGraph(rng *rand.Rand) (int, []diffEdge, []int64) {
	n := 2 + rng.Intn(60)
	ways := int64(1 + rng.Intn(4))
	edges := make([]diffEdge, 0, 2*n)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, diffEdge{i, i + 1, ways, 0})
	}
	supply := make([]int64, n)
	for i := 0; i+1 < n; i++ {
		if rng.Intn(3) == 0 {
			continue
		}
		j := i + 1 + rng.Intn(min(n-1-i, 8))
		size := int64(1 + rng.Intn(3))
		edges = append(edges, diffEdge{i, j, size, 840 / size * int64(1+rng.Intn(2))})
		supply[i] += size
		supply[j] -= size
	}
	return n, edges, supply
}

// TestMatchesReferenceRandom runs the production solver and the reference
// on the same random graphs, sharing one arena across graphs of different
// sizes, and requires identical results and per-edge flows.
func TestMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sv, ref := NewSolver(), &refSolver{}
	for iter := 0; iter < 3000; iter++ {
		n, edges := randomGraph(rng)
		maxFlow := int64(math.MaxInt64)
		if rng.Intn(2) == 0 {
			maxFlow = int64(1 + rng.Intn(6))
		}
		g, want := buildGraph(n, edges), buildGraph(n, edges)
		src, sink := rng.Intn(n), rng.Intn(n)
		gr, wr := sv.MinCostFlow(g, src, sink, maxFlow), ref.MinCostFlow(want, src, sink, maxFlow)
		if gr != wr {
			t.Fatalf("iter %d: result %+v, reference %+v", iter, gr, wr)
		}
		sameFlows(t, fmt.Sprintf("iter %d", iter), g, want)
	}
}

// TestMatchesReferenceFOO is the same comparison on FOO-shaped supply
// instances solved through SolveSupplies.
func TestMatchesReferenceFOO(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sv, ref := NewSolver(), &refSolver{}
	for iter := 0; iter < 2000; iter++ {
		n, edges, supply := fooGraph(rng)
		g, want := buildGraph(n, edges), buildGraph(n, edges)
		gr, gerr := sv.SolveSupplies(g, supply)
		wr, werr := ref.SolveSupplies(want, supply)
		if gr != wr || (gerr == nil) != (werr == nil) {
			t.Fatalf("iter %d: result %+v/%v, reference %+v/%v", iter, gr, gerr, wr, werr)
		}
		sameFlows(t, fmt.Sprintf("iter %d", iter), g, want)
	}
}

// FuzzSolverVsReference decodes a graph from the input — a node count,
// then (u, v, cap, cost) byte quads with small capacities and costs — and
// requires the production solver to route exactly the reference's flow on
// every edge.
func FuzzSolverVsReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 1, 1, 3, 2, 0, 0, 2, 2, 0, 2, 3, 2, 1})
	f.Add([]byte{6, 0, 1, 3, 0, 1, 2, 3, 0, 2, 5, 3, 0, 0, 3, 1, 1, 3, 5, 1, 0, 1, 4, 2, 1, 4, 5, 2, 0})
	f.Add([]byte{3, 0, 1, 1, 0, 1, 2, 1, 0, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%30
		var edges []diffEdge
		for i := 1; i+4 <= len(data); i += 4 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			edges = append(edges, diffEdge{u, v, int64(1 + data[i+2]%5), int64(data[i+3] % 4)})
		}
		g, want := buildGraph(n, edges), buildGraph(n, edges)
		gr := NewSolver().MinCostFlow(g, 0, n-1, math.MaxInt64)
		wr := (&refSolver{}).MinCostFlow(want, 0, n-1, math.MaxInt64)
		if gr != wr {
			t.Fatalf("result %+v, reference %+v", gr, wr)
		}
		sameFlows(t, "fuzz", g, want)
	})
}

// TestHeapKeyOverflowPanics drives the int32 key guard: a reduced
// distance past math.MaxInt32 must panic with a clear message, never wrap.
func TestHeapKeyOverflowPanics(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1, math.MaxInt32)
	g.AddEdge(1, 2, 1, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("distance past MaxInt32 did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "overflows the int32 heap key") {
			t.Fatalf("panic %q does not name the overflow", msg)
		}
	}()
	NewSolver().MinCostFlow(g, 0, 2, math.MaxInt64)
}

// TestHeapKeyAtLimit: a distance of exactly math.MaxInt32 still fits.
func TestHeapKeyAtLimit(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1, math.MaxInt32-1)
	g.AddEdge(1, 2, 1, 1)
	if res := NewSolver().MinCostFlow(g, 0, 2, math.MaxInt64); res.Flow != 1 || res.Cost != math.MaxInt32 {
		t.Fatalf("res = %+v, want flow 1 cost %d", res, math.MaxInt32)
	}
}
