package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/xmldb"
)

// The replay driver runs a load spec epoch by epoch through the public layer
// calls, in the order sim.Simulation.RunWorkload makes them, and records a
// span around each call: churn through core.Network mutations, Discover or
// DiscoverIncremental, ResetMessages + RunDetection, MaybeCheckpoint,
// PublishSnapshot, serve.Server.Answer/FeedbackPath/DrainFeedback, and
// IngestFeedback + incremental RunDetection. It mirrors the engine loop as
// of the commit that added it; the checks in traced() (equal answer digest,
// equal final inference digest, equal cache counts) fail loudly if the two
// ever drift apart. Bookkeeping that only feeds the engine's trace (the
// posterior-error statistics) is not replayed.

// mapSpec is what the driver knows about a live mapping.
type mapSpec struct {
	from, to  graph.PeerID
	corrupted bool
}

// replay is the state of one traced run.
type replay struct {
	tr   *tracer
	root int
	sc   sim.Scenario
	w    sim.Workload
	net  *core.Network
	lg   *wal.Log
	srv  *serve.Server

	attrs              []schema.Attribute
	idPairs, swapPairs map[schema.Attribute]schema.Attribute
	specs              map[graph.EdgeID]mapSpec
	discovered         bool

	layer     layerCounts
	runDigest hash.Hash
}

// layerCounts are the replay's per-layer work counters.
type layerCounts struct {
	churnOps, structures, rounds, remoteMsgs int
	detectAllocs                             uint64
	publishFull, deltaEdges                  int
	observations, touchedVars                int
	refreshWork                              core.DetectWork
	stats                                    serve.Stats
	answerNs, feedbackNs                     int64
	hitNs, missNs                            []int64
	visits, records                          int
}

// newReplay prepares a replay over the freshly built simulation s: only its
// initial network is used; every later step is the driver's.
func newReplay(s *sim.Simulation, w sim.Workload, lg *wal.Log, tr *tracer) (*replay, error) {
	sc := s.Scenario()
	if len(sc.Adversaries) > 0 || sc.WAL || sc.Verify || w.QPS > 0 {
		return nil, fmt.Errorf("replay: adversaries, crash injection, verify and QPS caps are not replayed")
	}
	r := &replay{
		tr:        tr,
		sc:        sc,
		w:         w,
		net:       s.Network(),
		lg:        lg,
		attrs:     s.Attributes(),
		idPairs:   make(map[schema.Attribute]schema.Attribute),
		swapPairs: make(map[schema.Attribute]schema.Attribute),
		specs:     make(map[graph.EdgeID]mapSpec),
		runDigest: sha256.New(),
	}
	for _, a := range r.attrs {
		r.idPairs[a], r.swapPairs[a] = a, a
	}
	r.swapPairs[r.attrs[0]], r.swapPairs[r.attrs[1]] = r.attrs[1], r.attrs[0]
	for _, e := range r.net.Topology().Edges() {
		r.specs[e.ID] = mapSpec{from: e.From, to: e.To, corrupted: s.Corrupted(e.ID)}
	}
	r.srv = serve.New(r.net, serve.Options{CacheSize: w.CacheSize})
	return r, nil
}

// run replays every epoch under one root span and returns the answer digest
// (the engine's WorkloadResult.Digest).
func (r *replay) run() (string, error) {
	r.root = r.tr.push("replay")
	defer r.tr.pop()
	for i := range r.sc.Epochs {
		if err := r.epoch(i); err != nil {
			return "", fmt.Errorf("replay: epoch %d: %w", i+1, err)
		}
	}
	if r.w.Feedback && r.w.Pipeline {
		if err := r.finalDrain(); err != nil {
			return "", fmt.Errorf("replay: final refresh: %w", err)
		}
	}
	return hex.EncodeToString(r.runDigest.Sum(nil)), nil
}

func (r *replay) epochSeed(epoch int) int64 {
	return r.sc.Seed*1_000_003 + int64(epoch)*7919
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (r *replay) epoch(i int) error {
	ep := r.sc.Epochs[i]
	if ep.CrashAt > 0 {
		return fmt.Errorf("crash injection is not replayed")
	}

	// Churn, collecting the mappings incremental discovery must cover.
	r.tr.push("core.churn")
	added := make(map[graph.EdgeID]bool)
	for _, ev := range ep.Events {
		if err := r.applyEvent(ev); err != nil {
			r.tr.pop()
			return err
		}
		switch ev.Op {
		case sim.OpAddMapping, sim.OpCorrupt, sim.OpFix:
			added[graph.EdgeID(ev.Mapping)] = true
		}
		for id := range added {
			if _, ok := r.net.Mapping(id); !ok {
				delete(added, id)
			}
		}
	}
	r.layer.churnOps += len(ep.Events)
	r.tr.pop()

	r.tr.push("core.discover")
	cfg := core.DiscoverConfig{
		Attrs:  []schema.Attribute{schema.Attribute(r.sc.AnalysisAttr)},
		MaxLen: r.sc.MaxLen,
		Delta:  r.sc.Delta,
	}
	var drep core.DiscoveryReport
	var err error
	if !r.discovered {
		drep, err = r.net.Discover(cfg)
		r.discovered = true
	} else {
		changed := make([]graph.EdgeID, 0, len(added))
		for id := range added {
			changed = append(changed, id)
		}
		sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })
		drep, err = r.net.DiscoverIncremental(cfg, changed...)
	}
	r.tr.pop()
	if err != nil {
		return err
	}
	r.layer.structures += drep.Structures

	psend := ep.PSend
	if psend == 0 {
		psend = 1
	}
	a0 := heapAllocs()
	r.tr.push("core.detect")
	r.net.ResetMessages()
	det, err := r.net.RunDetection(core.DetectOptions{
		MaxRounds: r.sc.MaxRounds,
		Tolerance: 1e-9,
		PSend:     psend,
		Seed:      r.epochSeed(i + 1),
		Transport: network.Kind(r.sc.Transport),
		Shards:    r.sc.Shards,
	})
	r.tr.pop()
	r.layer.detectAllocs += heapAllocs() - a0
	if err != nil {
		return err
	}
	r.layer.rounds += det.Rounds
	r.layer.remoteMsgs += det.RemoteMessages

	if r.lg != nil {
		r.tr.push("wal.checkpoint")
		err := r.lg.MaybeCheckpoint(r.net)
		r.tr.pop()
		if err != nil {
			return err
		}
	}

	r.tr.push("xmldb.stores")
	err = r.ensureStores()
	r.tr.pop()
	if err != nil {
		return err
	}
	snap := r.publish(det)

	// Serving, with the pipelined refresh launched at the split point.
	var job chan refreshJob
	var mid func()
	if r.w.Feedback && r.w.Pipeline {
		job = make(chan refreshJob, 1)
		mid = func() {
			r.tr.push("serve.feedback")
			batch := r.srv.DrainFeedback()
			r.tr.pop()
			go func() {
				det2, err := r.refresh(batch, r.epochSeed(i+1)+2, true)
				job <- refreshJob{det: det2, err: err}
			}()
		}
	}
	before := r.srv.Stats()
	r.tr.push("serve.phase")
	r.runDigest.Write([]byte(r.servePhase(i, snap, mid)))
	r.tr.pop()
	r.addStats(before, r.srv.Stats())

	switch {
	case r.w.Feedback && r.w.Pipeline:
		j := <-job
		if j.err != nil {
			return j.err
		}
		r.tr.push("serve.feedback")
		tail := r.srv.DrainFeedback()
		r.tr.pop()
		r.tr.push("core.ingest")
		_, err := r.net.IngestFeedback(core.FeedbackOptions{Delta: r.sc.Delta, Noise: r.w.FeedbackNoise}, tail...)
		r.tr.pop()
		if err != nil {
			return err
		}
		r.layer.observations += len(tail)
		r.publish(j.det)
	case r.w.Feedback:
		r.tr.push("serve.feedback")
		obs := r.srv.DrainFeedback()
		r.tr.pop()
		det2, err := r.refresh(obs, r.epochSeed(i+1)+2, false)
		if err != nil {
			return err
		}
		r.publish(det2)
	}
	return nil
}

// finalDrain re-detects the last epoch's tail observations of a pipelined
// run and publishes the result.
func (r *replay) finalDrain() error {
	r.tr.push("serve.feedback")
	obs := r.srv.DrainFeedback()
	r.tr.pop()
	det, err := r.refresh(obs, r.epochSeed(len(r.sc.Epochs)+1)+3, false)
	if err != nil {
		return err
	}
	r.publish(det)
	return nil
}

type refreshJob struct {
	det core.DetectResult
	err error
}

// refresh ingests feedback observations and re-detects the dirty components.
// A background refresh records its spans under the root.
func (r *replay) refresh(obs []core.QueryFeedback, seed int64, background bool) (core.DetectResult, error) {
	open := func(name string) func() {
		if background {
			id := r.tr.begin(name, r.root)
			return func() { r.tr.end(id) }
		}
		r.tr.push(name)
		return r.tr.pop
	}
	done := open("core.ingest")
	_, err := r.net.IngestFeedback(core.FeedbackOptions{Delta: r.sc.Delta, Noise: r.w.FeedbackNoise, NoTrust: r.sc.NoTrust}, obs...)
	done()
	if err != nil {
		return core.DetectResult{}, err
	}
	maxRounds := r.w.FeedbackMaxRounds
	if maxRounds == 0 {
		maxRounds = r.sc.MaxRounds
	}
	done = open("core.refresh")
	det, err := r.net.RunDetection(core.DetectOptions{
		Incremental: true,
		MaxRounds:   maxRounds,
		Tolerance:   1e-9,
		Seed:        seed,
		Transport:   network.Kind(r.sc.Transport),
		Shards:      r.sc.Shards,
		Workers:     r.sc.DetectWorkers,
		FixedSweeps: r.sc.FixedSweeps,
	})
	done()
	if err != nil {
		return core.DetectResult{}, err
	}
	// A background refresh hands its counts over through the job channel,
	// which orders these writes before the driver reads them.
	r.layer.observations += len(obs)
	r.layer.touchedVars += det.TouchedVars
	r.layer.refreshWork.Add(det.Work)
	return det, nil
}

func (r *replay) publish(det core.DetectResult) *core.RoutingSnapshot {
	r.tr.push("core.publish")
	snap := r.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: r.sc.Theta, ForceFull: r.w.FullPublish})
	r.tr.pop()
	if d := snap.Delta(); d != nil {
		r.layer.deltaEdges += d.Size()
	} else {
		r.layer.publishFull++
	}
	return snap
}

func (r *replay) addStats(before, after serve.Stats) {
	s := &r.layer.stats
	s.Served += after.Served - before.Served
	s.Errors += after.Errors - before.Errors
	s.CacheHits += after.CacheHits - before.CacheHits
	s.Revalidated += after.Revalidated - before.Revalidated
	s.Computed += after.Computed - before.Computed
	s.StaleEpochReads += after.StaleEpochReads - before.StaleEpochReads
}

func (r *replay) schemaFor(p graph.PeerID) *schema.Schema {
	return schema.MustNew("S_"+string(p), r.attrs...)
}

// applyEvent applies one churn event through core.Network mutations.
func (r *replay) applyEvent(ev sim.Event) error {
	switch ev.Op {
	case sim.OpJoin:
		_, err := r.net.AddPeer(graph.PeerID(ev.Peer), r.schemaFor(graph.PeerID(ev.Peer)))
		return err
	case sim.OpLeave:
		if _, ok := r.net.Peer(graph.PeerID(ev.Peer)); !ok {
			return fmt.Errorf("leave of unknown peer %q", ev.Peer)
		}
		for _, id := range r.net.RemovePeer(graph.PeerID(ev.Peer)) {
			delete(r.specs, id)
		}
	case sim.OpAddMapping:
		id := graph.EdgeID(ev.Mapping)
		if _, err := r.net.AddMapping(id, graph.PeerID(ev.From), graph.PeerID(ev.To), r.idPairs); err != nil {
			return err
		}
		r.specs[id] = mapSpec{from: graph.PeerID(ev.From), to: graph.PeerID(ev.To)}
	case sim.OpRemoveMapping:
		id := graph.EdgeID(ev.Mapping)
		if _, ok := r.net.Mapping(id); !ok {
			return fmt.Errorf("removal of unknown mapping %q", ev.Mapping)
		}
		r.net.RemoveMapping(id)
		delete(r.specs, id)
	case sim.OpCorrupt, sim.OpFix:
		id := graph.EdgeID(ev.Mapping)
		spec, ok := r.specs[id]
		if !ok {
			return fmt.Errorf("revision of unknown mapping %q", ev.Mapping)
		}
		spec.corrupted = ev.Op == sim.OpCorrupt
		pairs := r.idPairs
		if spec.corrupted {
			pairs = r.swapPairs
		}
		r.net.RemoveMapping(id)
		if _, err := r.net.AddMapping(id, spec.from, spec.to, pairs); err != nil {
			return err
		}
		r.specs[id] = spec
	default:
		return fmt.Errorf("event %q is not replayed", ev.Op)
	}
	return nil
}

// ensureStores attaches the workload's deterministic document store to every
// store-less peer, with the contents the engine gives it.
func (r *replay) ensureStores() error {
	for _, p := range r.net.Peers() {
		if _, ok := p.Store(); ok {
			continue
		}
		st, err := xmldb.NewStore(p.Schema())
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write([]byte(p.ID()))
		rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ r.w.Seed*1_000_003))
		for i := 0; i < r.w.Records; i++ {
			rec := make(xmldb.Record, len(r.attrs))
			for _, a := range r.attrs {
				vals := []string{fmt.Sprintf("w%02d %s r%d", rng.Intn(r.w.Vocab), p.ID(), i)}
				if rng.Intn(4) == 0 {
					vals = append(vals, fmt.Sprintf("w%02d %s extra", rng.Intn(r.w.Vocab), p.ID()))
				}
				rec[a] = vals
			}
			if err := st.Insert(rec); err != nil {
				return err
			}
		}
		if err := p.AttachStore(st); err != nil {
			return err
		}
	}
	return nil
}

// splitmix64 and clientSeed derive each (epoch, client) query stream the
// way the engine does.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func clientSeed(seed int64, epoch, client int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(epoch))
	h = splitmix64(h ^ uint64(client))
	return int64(h)
}

// feedbackSeedSalt separates a client's verdict stream from its query
// stream, as in the engine.
const feedbackSeedSalt = 0x5eedfeedbac4

var litTab = func() [100]string {
	var t [100]string
	for i := range t {
		t[i] = fmt.Sprintf("w%02d", i)
	}
	return t
}()

// client is one serving goroutine's state; it persists across the pipelined
// split so the query stream and digest chain continue unbroken.
type client struct {
	rng, fbRng           *rand.Rand
	h                    hash.Hash
	line                 []byte
	visits, records      int
	answerNs, feedbackNs int64
	hitNs, missNs        []int64
}

// servePhase serves one epoch's queries with the workload's clients and
// returns the epoch's answer digest. A non-nil mid runs at the split point
// with no client in flight.
func (r *replay) servePhase(epoch int, snap *core.RoutingSnapshot, mid func()) string {
	if r.w.QueriesPerEpoch == 0 {
		if mid != nil {
			mid()
		}
		sum := sha256.Sum256(nil)
		return hex.EncodeToString(sum[:])
	}
	live := make([]string, 0, r.net.NumPeers())
	for _, p := range r.net.Peers() {
		live = append(live, string(p.ID()))
	}
	sort.Strings(live)
	hot := min(r.w.HotKeys, len(live))

	clients := make([]*client, r.w.Clients)
	quotas := make([]int, r.w.Clients)
	base, rem := r.w.QueriesPerEpoch/r.w.Clients, r.w.QueriesPerEpoch%r.w.Clients
	for c := range clients {
		quotas[c] = base
		if c < rem {
			quotas[c]++
		}
		cl := &client{rng: rand.New(rand.NewSource(clientSeed(r.w.Seed, epoch, c))), h: sha256.New()}
		if r.w.Feedback {
			cl.fbRng = rand.New(rand.NewSource(clientSeed(r.w.Seed, epoch, c) ^ feedbackSeedSalt))
		}
		clients[c] = cl
	}
	serveAll := func(counts []int) {
		var wg sync.WaitGroup
		for c, cl := range clients {
			if counts[c] == 0 {
				continue
			}
			wg.Add(1)
			go func(cl *client, n int) {
				defer wg.Done()
				r.serveClient(cl, snap, n, live, hot)
			}(cl, counts[c])
		}
		wg.Wait()
	}
	if mid == nil {
		serveAll(quotas)
	} else {
		heads := make([]int, len(quotas))
		tails := make([]int, len(quotas))
		for c, q := range quotas {
			heads[c] = int(float64(q) * r.w.PipelineAfter)
			tails[c] = q - heads[c]
		}
		serveAll(heads)
		mid()
		serveAll(tails)
	}

	epochDigest := sha256.New()
	for _, cl := range clients {
		epochDigest.Write(cl.h.Sum(nil))
		l := &r.layer
		l.visits += cl.visits
		l.records += cl.records
		l.answerNs += cl.answerNs
		l.feedbackNs += cl.feedbackNs
		l.hitNs = append(l.hitNs, cl.hitNs...)
		l.missNs = append(l.missNs, cl.missNs...)
	}
	return hex.EncodeToString(epochDigest.Sum(nil))
}

// serveClient draws and answers n queries. Each answer is classified as a
// cache hit or miss by the server's counter deltas across the call; when the
// other clients completed answers of both kinds inside the window, the
// answer is left out of both latency samples.
func (r *replay) serveClient(cl *client, snap *core.RoutingSnapshot, n int, live []string, hot int) {
	for qi := 0; qi < n; qi++ {
		origin, qry := r.drawQuery(cl.rng, live, hot, snap)
		s0 := r.srv.Stats()
		t0 := time.Now()
		ans, err := r.srv.Answer(origin, qry)
		ns := time.Since(t0).Nanoseconds()
		s1 := r.srv.Stats()
		cl.answerNs += ns
		if err != nil {
			fmt.Fprintf(cl.h, "err|%s|%s|%v\n", origin, qry, err)
			continue
		}
		hits := s1.CacheHits - s0.CacheHits
		misses := (s1.Revalidated - s0.Revalidated) + (s1.Computed - s0.Computed)
		switch {
		case misses == 0:
			cl.hitNs = append(cl.hitNs, ns)
		case hits == 0:
			cl.missNs = append(cl.missNs, ns)
		}
		cl.line = append(cl.line[:0], "ans|"...)
		cl.line = append(cl.line, origin...)
		cl.line = append(cl.line, '|')
		cl.line = qry.AppendTo(cl.line)
		cl.line = append(cl.line, '|')
		cl.line = strconv.AppendUint(cl.line, ans.Epoch, 10)
		cl.line = append(cl.line, '|')
		cl.line = append(cl.line, ans.Fingerprint()...)
		cl.line = append(cl.line, '\n')
		cl.h.Write(cl.line)
		cl.visits += ans.Peers
		cl.records += len(ans.Records)
		if cl.fbRng != nil && cl.fbRng.Float64() < r.w.FeedbackRate {
			t1 := time.Now()
			r.judge(ans, cl.fbRng)
			cl.feedbackNs += time.Since(t1).Nanoseconds()
		}
	}
}

// drawQuery draws one (origin, query) pair from the workload mixture, as the
// engine does.
func (r *replay) drawQuery(rng *rand.Rand, live []string, hot int, snap *core.RoutingSnapshot) (graph.PeerID, query.Query) {
	isHot := rng.Float64() < r.w.Hot && hot > 0
	var origin graph.PeerID
	var attr schema.Attribute
	var lit string
	if isHot {
		origin = graph.PeerID(live[rng.Intn(hot)])
		attr = schema.Attribute(r.sc.AnalysisAttr)
		lit = litTab[rng.Intn(min(r.w.Vocab, 4))]
	} else {
		origin = graph.PeerID(live[rng.Intn(len(live))])
		attr = r.attrs[rng.Intn(len(r.attrs))]
		lit = litTab[rng.Intn(r.w.Vocab)]
	}
	sch, _ := snap.Schema(origin)
	var ops []query.Op
	switch rng.Intn(3) {
	case 0:
		ops = []query.Op{{Kind: query.Project, Attr: attr}}
	case 1:
		ops = []query.Op{{Kind: query.Select, Attr: attr, Literal: lit}, {Kind: query.Project, Attr: attr}}
	default:
		ops = []query.Op{{Kind: query.Select, Attr: attr, Literal: lit}}
	}
	return origin, query.MustNew(sch, ops...)
}

// judge is the ground-truth feedback policy: every path that returned
// records over at least one mapping is confirmed, or contradicted when a
// corrupted mapping on it displaced a query attribute, and the verdict is
// flipped with the workload's noise.
func (r *replay) judge(ans serve.Answer, rng *rand.Rand) {
	for _, p := range ans.Paths {
		if p.Records == 0 || len(p.Via) == 0 {
			continue
		}
		v := xmldb.VerdictConfirm
		for _, a := range ans.Attrs {
			cur := a
			for _, e := range p.Via {
				if r.specs[e].corrupted {
					cur = r.swapPairs[cur]
				}
			}
			if cur != a {
				v = xmldb.VerdictContradict
				break
			}
		}
		if noise := r.w.FeedbackNoise; noise > 0 && rng.Float64() < noise {
			if v == xmldb.VerdictConfirm {
				v = xmldb.VerdictContradict
			} else {
				v = xmldb.VerdictConfirm
			}
		}
		r.srv.FeedbackPath(ans, p.Peer, v)
	}
}
