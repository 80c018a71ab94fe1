// Package flow implements an integral min-cost max-flow solver (successive
// shortest augmenting paths with Johnson potentials) used by the FOO and
// FLACK offline replacement policies to solve their interval-caching
// formulation (Berger et al., "Practical Bounds on Optimal Caching with
// Variable Object Sizes").
//
// The Dijkstra scratch state (potentials, distances, parent arcs, visited
// marks, and the binary heap) lives in a reusable Solver arena: allocated
// once, grown to the largest graph seen, and invalidated by epoch stamping
// instead of O(n) clears between augmenting paths. FOO solves thousands of
// per-(set, segment) instances per experiment, so the arena turns the
// solver's allocation profile from per-instance to per-worker.
//
// The heap's pop order up to the sink is a contract. FOO instances have
// many optimal flows, and the augmenting path each epoch picks decides
// which one the solver returns: popping equal-distance entries in another
// order is still optimal but flips 53–1,616 keep decisions per app and
// variant at 60k blocks, which changes every FOO/FLACK plan. The order is
// that of container/heap (append + sift-up, swap root/last + sift-down,
// strictly-less comparisons) over arcs in insertion order; the reference
// solver in ref_test.go pins it edge for edge. What may change freely is
// everything that cannot reach that order: the heap's constant factors
// (entry layout, hole sifts) and the finishing loop that computes the
// remaining distances after the sink settles, since exact distances do
// not depend on the order nodes settle in.
package flow

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"uopsim/internal/telemetry"
)

// Graph is a directed flow network with integer capacities and costs.
// Nodes are dense integers [0, N).
type Graph struct {
	n int
	// Forward/backward edges are stored as arc pairs: arc 2i is the
	// forward direction of logical edge i, arc 2i+1 its residual.
	to    []int32
	next  []int32
	headA []int32
	cap   []int64
	cost  []int64
}

// NewGraph creates a graph with n nodes.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n, 0)
	return g
}

// Reset empties g to n isolated nodes with room for edgeCap logical edges
// (2*edgeCap arcs) and two spare head slots for SolveSupplies' super source
// and sink, reusing its storage when it is large enough: a builder that
// solves many graphs in sequence keeps one Graph and allocates only when an
// instance outgrows every earlier one.
func (g *Graph) Reset(n, edgeCap int) {
	g.n = n
	if cap(g.headA) < n+2 {
		g.headA = make([]int32, n, n+2)
	}
	g.headA = g.headA[:n]
	for i := range g.headA {
		g.headA[i] = -1
	}
	if cap(g.to) < 2*edgeCap {
		g.to = make([]int32, 0, 2*edgeCap)
		g.next = make([]int32, 0, 2*edgeCap)
		g.cap = make([]int64, 0, 2*edgeCap)
		g.cost = make([]int64, 0, 2*edgeCap)
	}
	g.to, g.next, g.cap, g.cost = g.to[:0], g.next[:0], g.cap[:0], g.cost[:0]
}

// NumEdges returns the logical edge count.
func (g *Graph) NumEdges() int { return len(g.to) / 2 }

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost, returning its edge id (for Flow queries). Cost must be
// non-negative (the FOO construction only has non-negative costs).
func (g *Graph) AddEdge(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) outside graph of %d nodes", u, v, g.n))
	}
	if capacity < 0 || cost < 0 {
		panic(fmt.Sprintf("flow: negative capacity/cost (%d/%d)", capacity, cost))
	}
	id := len(g.to) / 2
	g.addArc(u, v, capacity, cost)
	g.addArc(v, u, 0, -cost)
	return id
}

func (g *Graph) addArc(u, v int, capacity, cost int64) {
	g.to = append(g.to, int32(v))
	g.next = append(g.next, g.headA[u])
	g.headA[u] = int32(len(g.to) - 1)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
}

// Flow returns the flow routed over edge id after a Solve call.
func (g *Graph) Flow(id int) int64 {
	// Residual capacity on the reverse arc equals the routed flow.
	return g.cap[2*id+1]
}

// Result summarizes a solve.
type Result struct {
	// Flow is the total units routed from sources to sinks.
	Flow int64
	// Cost is the total cost of the routed flow.
	Cost int64
}

// pqItem is a Dijkstra heap entry: a node and its reduced distance. The
// int32 key keeps an entry at 8 bytes; push panics rather than truncate a
// distance that leaves it. A reduced distance is bounded by the longest
// simple path's cost, about 27.5M on the offline package's FOO instances
// (4096-request segments × cost scale 840 × 8 micro-ops per entry).
type pqItem struct {
	node int32
	key  int32
}

// Solver is a reusable min-cost-flow scratch arena. It carries no graph
// state between calls — only capacity — so one Solver may serve any number
// of graphs sequentially. Not safe for concurrent use; use one per worker
// (AcquireSolver/ReleaseSolver pool them).
type Solver struct {
	pot     []int64
	dist    []int64
	prevArc []int32
	// distE/visE stamp which entries of dist/prevArc (respectively the
	// visited set) are valid for the current Dijkstra epoch; bumping the
	// epoch invalidates everything in O(1).
	distE []uint32
	visE  []uint32
	epoch uint32
	heap  []pqItem
	// stack holds the finishing loop's nodes settled at the current
	// minimum distance (see finish).
	stack []int32
}

// NewSolver returns an empty solver arena; arrays grow on first use.
func NewSolver() *Solver { return &Solver{} }

// grow ensures capacity for an n-node graph without disturbing epochs.
func (s *Solver) grow(n int) {
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

// bump starts a new Dijkstra epoch, invalidating dist/visited stamps.
func (s *Solver) bump() {
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale stamps could alias; hard reset
		clear(s.distE)
		clear(s.visE)
		s.epoch = 1
	}
}

// The binary heap below makes exactly the comparisons container/heap makes
// (Push = append + sift-up; Pop = move the last entry to the root and sift
// it down; strictly-less comparisons on the key), so equal-distance entries
// pop in container/heap's order. The sifts move a hole instead of swapping
// entries, which writes each displaced entry once.

// push queues node v at reduced distance d.
func (s *Solver) push(v int, d int64) {
	if d > math.MaxInt32 {
		panic(fmt.Sprintf("flow: reduced distance %d at node %d overflows the int32 heap key (max %d); path costs are too large for this solver", d, v, math.MaxInt32))
	}
	it := pqItem{int32(v), int32(d)}
	h := append(s.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) >> 1
		if it.key >= h[i].key {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	s.heap = h
}

// pop removes and returns the heap's minimum entry.
func (s *Solver) pop() pqItem {
	h := s.heap
	n := len(h) - 1
	root := h[0]
	if n > 0 {
		siftDown(h[:n], 0, h[n])
	}
	s.heap = h[:n]
	return root
}

// siftDown places x in heap h starting from the hole at index i, moving
// the smaller child up while it is strictly less than x.
func siftDown(h []pqItem, i int, x pqItem) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].key < h[j].key {
			j = j2
		}
		if h[j].key >= x.key {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// MinCostFlow routes up to maxFlow units from src to t in g at minimum
// cost, stopping early when no augmenting path remains. Pass math.MaxInt64
// to route the maximum flow. All edge costs must be non-negative.
//
// Each epoch runs Dijkstra on reduced costs in two loops. The first builds
// the shortest-path tree in the contract order (see the package comment)
// and stops once t settles: the augmenting path only reads the parent arcs
// of nodes settled before t, which are final by then. finish then computes
// the remaining nodes' exact distances, which become the next epoch's
// potentials and so its pop order.
func (s *Solver) MinCostFlow(g *Graph, src, t int, maxFlow int64) Result {
	if src == t {
		return Result{}
	}
	s.grow(g.n)
	pot := s.pot[:g.n]
	clear(pot) // potentials start at zero each solve; valid since costs >= 0
	dist, prevArc := s.dist, s.prevArc
	distE, visE := s.distE, s.visE
	head, next, to, capa, cost := g.headA, g.next, g.to, g.cap, g.cost
	var res Result

	for res.Flow < maxFlow {
		// Stamps replace the per-iteration O(n) dist/visited reset.
		s.bump()
		ep := s.epoch
		dist[src] = 0
		distE[src] = ep
		s.heap = s.heap[:0]
		s.push(src, 0)
		for len(s.heap) > 0 {
			u := int(s.pop().node)
			if visE[u] == ep {
				continue
			}
			visE[u] = ep
			if u == t {
				break
			}
			du, pu := dist[u], pot[u]
			for a := head[u]; a != -1; a = next[a] {
				if capa[a] <= 0 {
					continue
				}
				v := int(to[a])
				if visE[v] == ep {
					continue
				}
				nd := du + cost[a] + pu - pot[v]
				if distE[v] != ep || nd < dist[v] {
					dist[v] = nd
					distE[v] = ep
					prevArc[v] = a
					s.push(v, nd)
				}
			}
		}
		if visE[t] != ep {
			break
		}
		s.finish(g, t)
		for i := range pot {
			if distE[i] == ep {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := maxFlow - res.Flow
		for v := t; v != src; {
			a := prevArc[v]
			if capa[a] < push {
				push = capa[a]
			}
			v = int(to[a^1])
		}
		for v := t; v != src; {
			a := prevArc[v]
			capa[a] -= push
			capa[a^1] += push
			res.Cost += push * cost[a]
			v = int(to[a^1])
		}
		res.Flow += push
	}
	return res
}

// finish completes the current epoch's Dijkstra after node t settled: it
// gives every node still reachable its exact distance, without parent
// arcs. Only the distances matter here, and they do not depend on settle
// order, so a node reached over a zero-reduced-cost arc from a node at the
// current minimum distance is settled at once through a stack instead of
// going through the heap.
func (s *Solver) finish(g *Graph, t int) {
	pot, dist, distE, visE, ep := s.pot, s.dist, s.distE, s.visE, s.epoch
	head, next, to, capa, cost := g.headA, g.next, g.to, g.cap, g.cost
	// The entries left in the heap need no particular order any more, so
	// drop the stale ones (settled nodes, superseded distances) instead of
	// popping them, and re-heapify the live frontier.
	h := s.heap[:0]
	for _, it := range s.heap {
		if v := it.node; visE[v] != ep && int64(it.key) == dist[v] {
			h = append(h, it)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	s.heap = h
	stack := append(s.stack[:0], int32(t))
	for {
		var u int
		if n := len(stack) - 1; n >= 0 {
			u = int(stack[n])
			stack = stack[:n]
		} else if len(s.heap) > 0 {
			u = int(s.pop().node)
			if visE[u] == ep {
				continue
			}
			visE[u] = ep
		} else {
			break
		}
		du, pu := dist[u], pot[u]
		for a := head[u]; a != -1; a = next[a] {
			if capa[a] <= 0 {
				continue
			}
			v := int(to[a])
			if visE[v] == ep {
				continue
			}
			rc := cost[a] + pu - pot[v]
			if rc == 0 {
				// du is the minimum over all unsettled nodes, so v's
				// distance is final.
				dist[v] = du
				distE[v] = ep
				visE[v] = ep
				stack = append(stack, int32(v))
			} else if nd := du + rc; distE[v] != ep || nd < dist[v] {
				dist[v] = nd
				distE[v] = ep
				s.push(v, nd)
			}
		}
	}
	s.stack = stack
}

// SolveSupplies satisfies per-node supplies (positive) and demands
// (negative) at minimum cost by attaching a super source and sink to g. The
// supply slice must sum to zero. It returns the routed flow (== total
// supply) and its cost; err is non-nil when the network cannot absorb the
// supplies.
func (s *Solver) SolveSupplies(g *Graph, supply []int64) (Result, error) {
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
	// Extend the graph with super source and sink.
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

// ---------------------------------------------------------------------------
// Solver pool and reuse telemetry

var (
	solverPool = sync.Pool{New: func() any {
		solverFresh.Add(1)
		return NewSolver()
	}}
	// solverReuse / solverFresh count pool hits vs. new arena allocations;
	// exposed as flow_solver_reuse_total / flow_solver_fresh_total.
	solverReuse atomic.Uint64
	solverFresh atomic.Uint64
)

// AcquireSolver returns a pooled solver arena (allocating one only when the
// pool is empty). Pair with ReleaseSolver.
func AcquireSolver() *Solver {
	solverReuse.Add(1)
	return solverPool.Get().(*Solver)
}

// ReleaseSolver returns a solver to the pool. The arena keeps its grown
// capacity; no state carries over between users.
func ReleaseSolver(s *Solver) { solverPool.Put(s) }

// SolverReuseStats returns how many AcquireSolver calls were served from the
// pool (reuse) and how many had to allocate a fresh arena.
func SolverReuseStats() (reuse, fresh uint64) {
	f := solverFresh.Load()
	a := solverReuse.Load()
	return a - f, f
}

// RegisterMetrics exposes the solver-pool counters in reg as
// flow_solver_reuse_total and flow_solver_fresh_total, refreshed at each
// collection.
func RegisterMetrics(reg *telemetry.Registry) {
	reuse := reg.Counter("flow_solver_reuse_total")
	fresh := reg.Counter("flow_solver_fresh_total")
	reg.OnCollect(func() {
		r, f := SolverReuseStats()
		reuse.Store(r)
		fresh.Store(f)
	})
}
