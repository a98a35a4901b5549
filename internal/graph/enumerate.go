package graph

import (
	"cmp"
	"slices"
)

// The enumerators below run on a flat, integer-numbered view of the graph
// built once per call: peers are numbered by rank in sortedPeers order,
// edges by position in ascending EdgeID order, and each peer's arcs are
// listed in ascending edge order — the order a step-by-step search visits
// them in. The search state is a pair of []bool sets indexed by those
// numbers plus one reused walk, so the only allocations that scale with the
// search are the emitted Cycle and ParallelPair step slices.

// arc is one usable step out of a peer: the edge, the peer it leads to and
// whether it traverses the edge From→To.
type arc struct {
	edge, next int32
	fwd        bool
}

// enumIndex is the flat view the enumerators search.
type enumIndex struct {
	directed bool
	peers    []PeerID // by rank
	edges    []EdgeID // ascending
	off      []int32  // arcs of peer p are adj[off[p]:off[p+1]]
	adj      []arc
}

func (g *Graph) index() *enumIndex {
	peers := g.sortedPeers()
	rank := make(map[PeerID]int32, len(peers))
	for i, p := range peers {
		rank[p] = int32(i)
	}
	edges := slices.Clone(g.edgeIDs)
	slices.Sort(edges)
	ends := make([][2]int32, len(edges))
	off := make([]int32, len(peers)+1)
	for i, id := range edges {
		e := g.edges[id]
		ends[i] = [2]int32{rank[e.From], rank[e.To]}
		off[ends[i][0]+1]++
		if !g.directed {
			off[ends[i][1]+1]++
		}
	}
	for p := 1; p < len(off); p++ {
		off[p] += off[p-1]
	}
	adj := make([]arc, off[len(peers)])
	fill := slices.Clone(off[:len(peers)])
	for i, ft := range ends {
		from, to := ft[0], ft[1]
		adj[fill[from]] = arc{edge: int32(i), next: to, fwd: true}
		fill[from]++
		if !g.directed {
			adj[fill[to]] = arc{edge: int32(i), next: from, fwd: false}
			fill[to]++
		}
	}
	return &enumIndex{directed: g.directed, peers: peers, edges: edges, off: off, adj: adj}
}

func (ix *enumIndex) arcs(p int32) []arc { return ix.adj[ix.off[p]:ix.off[p+1]] }

func (ix *enumIndex) step(a arc) Step { return Step{Edge: ix.edges[a.edge], Forward: a.fwd} }

// Cycles enumerates all simple cycles with at most maxLen edges (and at
// least 2). Each cycle is reported exactly once, regardless of rotation or
// orientation. Peers and edges are visited in a deterministic order, so the
// result is stable across runs.
func (g *Graph) Cycles(maxLen int) []Cycle {
	if maxLen < 2 {
		return nil
	}
	return g.index().cycles(maxLen, nil)
}

// CyclesThrough returns the cycles of length <= maxLen that use at least
// one of the changed edges, in the order Cycles reports them.
func (g *Graph) CyclesThrough(changed map[EdgeID]bool, maxLen int) []Cycle {
	if maxLen < 2 || len(changed) == 0 {
		return nil
	}
	ix := g.index()
	through := make([]bool, len(ix.edges))
	for i, id := range ix.edges {
		through[i] = changed[id]
	}
	return ix.cycles(maxLen, through)
}

// cycleSearch is the state of one cycle enumeration.
type cycleSearch struct {
	*enumIndex
	maxLen  int
	through []bool // when non-nil, keep only cycles using a marked edge
	hits    int    // marked edges on the walk
	start   int32
	onPath  []bool // by peer
	used    []bool // by edge
	walk    []arc
	out     []Cycle
}

// cycles searches from every peer in rank order, visiting only peers of
// higher rank, so each cycle is found from its minimum-rank peer only.
func (ix *enumIndex) cycles(maxLen int, through []bool) []Cycle {
	s := &cycleSearch{
		enumIndex: ix,
		maxLen:    maxLen,
		through:   through,
		onPath:    make([]bool, len(ix.peers)),
		used:      make([]bool, len(ix.edges)),
	}
	for p := range ix.peers {
		s.start = int32(p)
		s.extend(s.start)
	}
	return s.out
}

func (s *cycleSearch) extend(cur int32) {
	closeOnly := len(s.walk)+1 == s.maxLen
	for _, a := range s.arcs(cur) {
		if s.used[a.edge] || a.next < s.start {
			continue
		}
		if a.next == s.start {
			s.emit(a)
			continue
		}
		if closeOnly || s.onPath[a.next] {
			continue
		}
		s.onPath[a.next], s.used[a.edge] = true, true
		if s.through != nil && s.through[a.edge] {
			s.hits++
		}
		s.walk = append(s.walk, a)
		s.extend(a.next)
		s.walk = s.walk[:len(s.walk)-1]
		if s.through != nil && s.through[a.edge] {
			s.hits--
		}
		s.onPath[a.next], s.used[a.edge] = false, false
	}
}

// emit reports the walk closed by a as a cycle. An undirected cycle is
// walked in both orientations from its start; only the one met first — its
// first edge sorts before its last — is kept. A directed cycle has one.
func (s *cycleSearch) emit(a arc) {
	if len(s.walk) == 0 {
		return
	}
	if !s.directed && s.walk[0].edge > a.edge {
		return
	}
	if s.through != nil && s.hits == 0 && !s.through[a.edge] {
		return
	}
	steps := make([]Step, len(s.walk)+1)
	for i, w := range s.walk {
		steps[i] = s.step(w)
	}
	steps[len(s.walk)] = s.step(a)
	s.out = append(s.out, Cycle{Steps: steps})
}

// ParallelPaths enumerates pairs of distinct simple directed paths with the
// same endpoints, each of at most maxLen edges, sharing no edges and no
// internal peers. Pairs where both paths have length 1 but identical edges
// are excluded by construction; pairs consisting of two parallel single
// edges (a multi-edge) are legitimate parallel paths and are reported.
// Only meaningful on directed graphs; on undirected graphs it returns nil
// (an undirected parallel pair is already a cycle and is reported by Cycles).
//
// Pairs are reported by source, then destination (both in PeerID order),
// then the search order of their first and second path.
func (g *Graph) ParallelPaths(maxLen int) []ParallelPair {
	if !g.directed || maxLen < 1 {
		return nil
	}
	ix := g.index()
	s := &pathSearch{
		enumIndex: ix,
		maxLen:    maxLen,
		onPath:    make([]bool, len(ix.peers)),
		edgeMark:  make([]int32, len(ix.edges)),
		peerMark:  make([]int32, len(ix.peers)),
	}
	for p := range ix.peers {
		s.pairsFrom(int32(p))
	}
	return s.out
}

// path is one simple path found from the current source: its arcs are
// pathSearch.arcBuf[off:off+n]; steps is materialized once, on first use.
type path struct {
	off, n, dest int32
	steps        []Step
}

// pathSearch is the state of one parallel-path enumeration. The mark
// arrays hold the stamp of the path last marked, so they never need
// clearing.
type pathSearch struct {
	*enumIndex
	maxLen   int
	onPath   []bool // by peer
	walk     []arc
	arcBuf   []arc
	paths    []path
	edgeMark []int32
	peerMark []int32
	stamp    int32
	out      []ParallelPair
}

// pairsFrom enumerates the simple paths leaving src in search preorder,
// groups them by destination (stably, destinations ascending) and reports
// every disjoint pair within a group.
func (s *pathSearch) pairsFrom(src int32) {
	s.arcBuf, s.paths = s.arcBuf[:0], s.paths[:0]
	s.onPath[src] = true
	s.extend(src)
	s.onPath[src] = false
	slices.SortStableFunc(s.paths, func(a, b path) int { return cmp.Compare(a.dest, b.dest) })
	for lo := 0; lo < len(s.paths); {
		hi := lo + 1
		for hi < len(s.paths) && s.paths[hi].dest == s.paths[lo].dest {
			hi++
		}
		for i := lo; i < hi; i++ {
			s.mark(i)
			for j := i + 1; j < hi; j++ {
				if s.disjoint(j) {
					s.out = append(s.out, ParallelPair{
						Source: s.peers[src], Dest: s.peers[s.paths[i].dest],
						A: s.steps(i), B: s.steps(j),
					})
				}
			}
		}
		lo = hi
	}
}

func (s *pathSearch) extend(cur int32) {
	if len(s.walk) >= s.maxLen {
		return
	}
	for _, a := range s.arcs(cur) {
		if s.onPath[a.next] {
			continue
		}
		s.walk = append(s.walk, a)
		s.paths = append(s.paths, path{off: int32(len(s.arcBuf)), n: int32(len(s.walk)), dest: a.next})
		s.arcBuf = append(s.arcBuf, s.walk...)
		s.onPath[a.next] = true
		s.extend(a.next)
		s.onPath[a.next] = false
		s.walk = s.walk[:len(s.walk)-1]
	}
}

func (s *pathSearch) arcsOf(i int) []arc {
	p := s.paths[i]
	return s.arcBuf[p.off : p.off+p.n]
}

// mark stamps path i's edges and internal peers.
func (s *pathSearch) mark(i int) {
	s.stamp++
	as := s.arcsOf(i)
	for k, a := range as {
		s.edgeMark[a.edge] = s.stamp
		if k < len(as)-1 {
			s.peerMark[a.next] = s.stamp
		}
	}
}

// disjoint reports whether path j shares no edge and no internal peer with
// the path last marked.
func (s *pathSearch) disjoint(j int) bool {
	as := s.arcsOf(j)
	for k, a := range as {
		if s.edgeMark[a.edge] == s.stamp {
			return false
		}
		if k < len(as)-1 && s.peerMark[a.next] == s.stamp {
			return false
		}
	}
	return true
}

func (s *pathSearch) steps(i int) []Step {
	p := &s.paths[i]
	if p.steps == nil {
		p.steps = make([]Step, p.n)
		for k, a := range s.arcsOf(i) {
			p.steps[k] = s.step(a)
		}
	}
	return p.steps
}
