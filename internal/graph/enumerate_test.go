package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomMultigraph builds a small directed or undirected multigraph with
// parallel edges. Peer and edge names are drawn from shuffled pools, so
// their sorted order differs from insertion order; a few edges and peers
// are removed again, as churn does.
func randomMultigraph(rng *rand.Rand, directed bool) *Graph {
	g := newGraph(directed)
	n := 2 + rng.Intn(8)
	names := rng.Perm(26)
	peer := func(i int) PeerID { return PeerID(fmt.Sprintf("%c%d", 'a'+names[i], rng.Intn(3))) }
	ps := make([]PeerID, n)
	for i := range ps {
		ps[i] = peer(i)
		g.AddPeer(ps[i])
	}
	ids := rng.Perm(1000)
	m := 1 + rng.Intn(3*n)
	for k := 0; k < m; k++ {
		from, to := ps[rng.Intn(n)], ps[rng.Intn(n)]
		if g.NumEdges() > 0 && rng.Intn(4) == 0 {
			// A parallel copy of an earlier edge, possibly reversed.
			e := g.Edges()[rng.Intn(g.NumEdges())]
			from, to = e.From, e.To
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
		}
		if from == to {
			continue
		}
		g.MustAddEdge(EdgeID(fmt.Sprintf("e%d", ids[k])), from, to)
	}
	for r := rng.Intn(3); r > 0 && g.NumEdges() > 0; r-- {
		g.RemoveEdge(g.Edges()[rng.Intn(g.NumEdges())].ID)
	}
	if rng.Intn(5) == 0 {
		g.RemovePeer(ps[rng.Intn(n)])
	}
	return g
}

// ringWithChords builds a directed ring of n peers plus a chord from every
// every-th peer to the peer span positions ahead.
func ringWithChords(n, every, span int) *Graph {
	g := NewDirected()
	for i := 0; i < n; i++ {
		g.MustAddEdge(EdgeID(fmt.Sprintf("r%d", i)), peerName(i), peerName((i+1)%n))
		if i%every == 0 {
			g.MustAddEdge(EdgeID(fmt.Sprintf("c%d", i)), peerName(i), peerName((i+span)%n))
		}
	}
	return g
}

// randomChanged marks a random subset of g's edges.
func randomChanged(rng *rand.Rand, g *Graph) map[EdgeID]bool {
	changed := make(map[EdgeID]bool)
	for _, e := range g.Edges() {
		if rng.Intn(4) == 0 {
			changed[e.ID] = true
		}
	}
	return changed
}

// checkAgainstReference requires the kernel's Cycles, CyclesThrough and
// ParallelPaths to equal the reference enumerators element for element, in
// order.
func checkAgainstReference(t *testing.T, name string, g *Graph, maxLen int, changed map[EdgeID]bool) {
	t.Helper()
	if got, want := g.Cycles(maxLen), g.refCycles(maxLen); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Cycles(%d) differs from the reference:\n got %v\nwant %v", name, maxLen, got, want)
	}
	if got, want := g.CyclesThrough(changed, maxLen), g.refCyclesThrough(changed, maxLen); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CyclesThrough(%d) differs from the reference:\n got %v\nwant %v", name, maxLen, got, want)
	}
	if got, want := g.ParallelPaths(maxLen), g.refParallelPaths(maxLen); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ParallelPaths(%d) differs from the reference:\n got %v\nwant %v", name, maxLen, got, want)
	}
}

// TestEnumerationMatchesReference pins the flat kernel to the map-based
// reference search on random multigraphs, scale-free overlays and a
// directed ring with chords: same structures, same order.
func TestEnumerationMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(rng, seed%2 == 0)
		for maxLen := 0; maxLen <= 6; maxLen++ {
			checkAgainstReference(t, fmt.Sprintf("seed %d", seed), g, maxLen, randomChanged(rng, g))
		}
	}

	rng := rand.New(rand.NewSource(1))
	ba, err := BarabasiAlbert(1000, 2, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxLen := range []int{4, 5} {
		checkAgainstReference(t, "BA(1000)", ba, maxLen, randomChanged(rng, ba))
	}
	dba, err := BarabasiAlbert(300, 2, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "directed BA(300)", dba, 4, randomChanged(rng, dba))

	ring := ringWithChords(40, 2, 3)
	for maxLen := 2; maxLen <= 6; maxLen++ {
		checkAgainstReference(t, "ring with chords", ring, maxLen, randomChanged(rng, ring))
	}
	if len(ring.ParallelPaths(4)) == 0 {
		t.Fatal("ring with chords has no parallel paths")
	}
}

// TestCyclesAllocationCeiling gates the kernel's allocations on the graph
// of BenchmarkCycleEnumeration: one step slice per emitted cycle plus a
// bounded index, not an allocation per search node.
func TestCyclesAllocationCeiling(t *testing.T) {
	g, err := BarabasiAlbert(60, 2, false, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 1000
	if allocs := testing.AllocsPerRun(5, func() { g.Cycles(5) }); allocs > ceiling {
		t.Errorf("Cycles(5) made %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkParallelPaths measures parallel-path enumeration on a directed
// 200-peer ring with chords.
func BenchmarkParallelPaths(b *testing.B) {
	g := ringWithChords(200, 2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(g.ParallelPaths(4))
	}
	b.ReportMetric(float64(n), "pairs")
}
