package core

// TestDetectionSchedulesPinned freezes the exact output of every detection
// schedule on one seeded random network: round and message counts,
// transport and work counters, and the bit patterns of every posterior.
// Any refactor of the round loop, the frame emitter or the transport setup
// must keep these values identical.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
)

// pinnedNetwork builds a seeded random overlay: 10 peers over three
// attributes, a ring plus 8 random chords (so evidence has overlapping
// cycles), one in four mappings corrupted by an attribute swap, and one
// self-promoting peer that lies on the wire.
func pinnedNetwork(t testing.TB) *Network {
	t.Helper()
	const peers = 10
	rng := rand.New(rand.NewSource(26))
	net := NewNetwork(true)
	for i := 0; i < peers; i++ {
		net.MustAddPeer(graph.PeerID(fmt.Sprintf("p%02d", i)), schema.MustNew(fmt.Sprintf("S%d", i), "a", "b", "c"))
	}
	edges := make(map[[2]int]bool)
	for i := 0; i < peers; i++ {
		edges[[2]int{i, (i + 1) % peers}] = true
	}
	for len(edges) < peers+8 {
		from, to := rng.Intn(peers), rng.Intn(peers)
		if from != to {
			edges[[2]int{from, to}] = true
		}
	}
	keys := make([][2]int, 0, len(edges))
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for i, e := range keys {
		pairs := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"}
		if rng.Intn(4) == 0 {
			pairs = map[schema.Attribute]schema.Attribute{"a": "b", "b": "a", "c": "c"}
		}
		net.MustAddMapping(graph.EdgeID(fmt.Sprintf("m%02d", i)),
			graph.PeerID(fmt.Sprintf("p%02d", e[0])), graph.PeerID(fmt.Sprintf("p%02d", e[1])), pairs)
	}
	if _, err := net.DiscoverStructural([]schema.Attribute{"a", "b", "c"}, 5, 0.01); err != nil {
		t.Fatal(err)
	}
	net.SetSelfPromote("p07", true)
	return net
}

// posteriorBits digests every posterior's exact bit pattern in canonical
// (mapping, attribute) order.
func posteriorBits(post map[graph.EdgeID]map[schema.Attribute]float64) uint64 {
	var keys []varKey
	for m, mm := range post {
		for a := range mm {
			keys = append(keys, varKey{Mapping: m, Attr: a})
		}
	}
	sortVarKeys(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s/%s=%016x;", k.Mapping, k.Attr, math.Float64bits(post[k.Mapping][k.Attr]))
	}
	return h.Sum64()
}

type pinnedCounters struct {
	Rounds, RemoteMessages, TouchedVars int
	Converged                           bool
	Transport                           network.Stats
	Work                                DetectWork
	Bits                                uint64
}

func TestDetectionSchedulesPinned(t *testing.T) {
	partition := func(from, to graph.PeerID) bool {
		return (from < "p07") != (to < "p07") && (from == "p02" || to == "p09")
	}
	// withFeedback converges the whole network, then ingests a feedback
	// batch whose chains dirty a subset of the factor graph.
	withFeedback := func(t *testing.T) *Network {
		net := pinnedNetwork(t)
		if _, err := net.RunDetection(DetectOptions{Tolerance: 1e-9}); err != nil {
			t.Fatal(err)
		}
		if _, err := net.IngestFeedback(FeedbackOptions{Delta: 0.02, Noise: 0.02},
			QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m01", "m05"}, Polarity: feedback.Negative},
			QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m03"}, Polarity: feedback.Positive},
			QueryFeedback{Attr: "b", Chain: []graph.EdgeID{"m02", "m07"}, Polarity: feedback.Positive},
		); err != nil {
			t.Fatal(err)
		}
		return net
	}
	residualWant := pinnedCounters{
		Rounds: 11, RemoteMessages: 29332, TouchedVars: 36, Converged: true,
		Transport: network.Stats{Sent: 29332, Delivered: 29332},
		Work:      DetectWork{MessageUpdates: 6750, FactorUpdates: 7853, Resets: 6338, Components: 2, ComponentRounds: 42},
		Bits:      0x685463617a5f3424,
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *Network
		opts  DetectOptions
		want  pinnedCounters
	}{
		{"lockstep", func(t *testing.T) *Network { return pinnedNetwork(t) },
			DetectOptions{Tolerance: 1e-9}, pinnedCounters{
				Rounds: 4, RemoteMessages: 17400, TouchedVars: 54, Converged: true,
				Transport: network.Stats{Sent: 17400, Delivered: 17400},
				Work:      DetectWork{MessageUpdates: 3936, FactorUpdates: 3936, ComponentRounds: 4},
				Bits:      0x9355aec609dd8c90,
			}},
		// The sharded substrate runs each shard's peers on its own worker;
		// the trajectory is the same as the single-threaded simulator's.
		{"lockstep-sharded", func(t *testing.T) *Network { return pinnedNetwork(t) },
			DetectOptions{Tolerance: 1e-9, Transport: network.KindSharded, Shards: 2}, pinnedCounters{
				Rounds: 4, RemoteMessages: 17400, TouchedVars: 54, Converged: true,
				Transport: network.Stats{Sent: 17400, Delivered: 17400},
				Work:      DetectWork{MessageUpdates: 3936, FactorUpdates: 3936, ComponentRounds: 4},
				Bits:      0x9355aec609dd8c90,
			}},
		{"lockstep-lossy-partitioned", func(t *testing.T) *Network { return pinnedNetwork(t) },
			DetectOptions{Tolerance: 1e-9, PSend: 0.7, Seed: 11, Blocked: partition}, pinnedCounters{
				Rounds: 19, RemoteMessages: 75582, TouchedVars: 54, Converged: true,
				Transport: network.Stats{Sent: 75582, Delivered: 52991, Dropped: 22591},
				Work:      DetectWork{MessageUpdates: 18696, FactorUpdates: 18696, ComponentRounds: 19},
				Bits:      0xc6b27bc5bd8574c0,
			}},
		{"incremental-fixed-sweeps", withFeedback,
			DetectOptions{Incremental: true, FixedSweeps: true, Tolerance: 1e-12}, pinnedCounters{
				Rounds: 11, RemoteMessages: 31944, TouchedVars: 36, Converged: true,
				Transport: network.Stats{Sent: 31944, Delivered: 31944},
				Work:      DetectWork{MessageUpdates: 7271, FactorUpdates: 7271, Resets: 4226, Components: 2, ComponentRounds: 22},
				Bits:      0xc63c7652ed8b1304,
			}},
		// One of the two dirty components oscillates on the residual
		// frontier and escalates to lockstep: its second scoped reset is why
		// Resets exceeds the fixed-sweeps run's 4226.
		{"incremental-residual", withFeedback,
			DetectOptions{Incremental: true, Tolerance: 1e-12}, residualWant},
		{"incremental-residual-workers", withFeedback,
			DetectOptions{Incremental: true, Tolerance: 1e-12, Workers: 2}, residualWant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.build(t).RunDetection(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := pinnedCounters{
				Rounds: res.Rounds, RemoteMessages: res.RemoteMessages, TouchedVars: res.TouchedVars,
				Converged: res.Converged, Transport: res.Transport, Work: res.Work,
				Bits: posteriorBits(res.Posteriors),
			}
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
