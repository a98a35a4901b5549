package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/wal"
)

// layerUnits lists the per-layer metrics and their units. Times are self
// times of the replay's spans, except serve.answer.ms and serve.feedback.ms,
// which sum the clients' time inside Answer and FeedbackPath (plus the
// drains) across both clients.
var layerUnits = map[string]string{
	"core.churn.ms":                "ms",
	"core.churn.ops":               "count",
	"core.discover.ms":             "ms",
	"core.discover.structures":     "count",
	"core.detect.ms":               "ms",
	"core.detect.rounds":           "count",
	"core.detect.remote_msgs":      "count",
	"core.detect.allocs_per_round": "allocs/round",
	"core.publish.ms":              "ms",
	"core.publish.full":            "count",
	"core.publish.delta_edges":     "count",
	"core.ingest.ms":               "ms",
	"core.ingest.observations":     "count",
	"core.refresh.ms":              "ms",
	"core.refresh.msg_updates":     "count",
	"core.refresh.touched_vars":    "count",
	"serve.answer.ms":              "ms",
	"serve.hit_p50_ns":             "ns",
	"serve.miss_p50_ns":            "ns",
	"serve.hit_frac":               "ratio",
	"serve.revalidated":            "count",
	"serve.computed":               "count",
	"serve.peers_per_answer":       "peers",
	"serve.records_per_answer":     "records",
	"serve.feedback.ms":            "ms",
	"wal.records":                  "count",
	"wal.bytes_per_record":         "B",
	"wal.syncs":                    "count",
	"wal.sync.ms":                  "ms",
	"wal.checkpoints":              "count",
	"wal.checkpoint.ms":            "ms",
	"wal.recover.ms":               "ms",
	"go.gc.count":                  "count",
	"go.gc.pause_ms":               "ms",
	"go.alloc_mb":                  "MB",
	"trace.coverage":               "ratio",
	"trace.overhead":               "ratio",
	// End-to-end quantities that are zero on some workloads, measured on the
	// untraced engine run of the same invocation.
	"feedback_wait_ms": "ms",
	"recover_s":        "s",
}

// tracedRun is one traced replay and what it measured.
type tracedRun struct {
	spans     []span
	digest    string // answer digest, comparable to WorkloadResult.Digest
	inference string // wal.DigestNetwork of the final network
	counters  counters
	values    map[string]float64
	wall      time.Duration // the root span's duration
	failures  []string
	// served and failed count the replay's answers and its errors plus
	// stale reads.
	served, failed int
}

// traced produces the per-layer metrics from instance 0. It alternates an
// untraced engine run, which gives the reference outputs and wall time, with
// a traced replay, while another pair fits in cfg.seconds, and at least
// twice. Each metric is the median over the runs; the spans of the first
// replay are returned for writing out.
func traced(cfg config, walDir string, rep *report) ([]span, error) {
	start := time.Now()
	var engs []*engineRun
	var runs []*tracedRun
	for {
		t0 := time.Now()
		eng, err := runEngine(cfg, 0, walDir)
		if err != nil {
			return nil, err
		}
		rep.Failures = append(rep.Failures, eng.failures...)
		if len(engs) > 0 {
			rep.Failures = append(rep.Failures, compareRuns(engs[0], eng)...)
		}
		rep.Attempted += cfg.p.Epochs * cfg.p.Queries
		rep.Failed += failedAnswers(cfg.p, eng.res)
		engs = append(engs, eng)

		r, err := runReplay(cfg, walDir)
		if err != nil {
			return nil, err
		}
		rep.Failures = append(rep.Failures, r.failures...)
		if r.digest != eng.res.Digest {
			rep.Failures = append(rep.Failures, fmt.Sprintf("replay answer digest %.12s, engine %.12s", r.digest, eng.res.Digest))
		}
		if r.inference != eng.digest {
			rep.Failures = append(rep.Failures, fmt.Sprintf("replay inference digest %.12s, engine %.12s", r.inference, eng.digest))
		}
		want := eng.counters
		want.DetectRounds, want.RemoteMessages = r.counters.DetectRounds, r.counters.RemoteMessages
		if !reflect.DeepEqual(r.counters, want) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("replay counters %+v, engine %+v", r.counters, eng.counters))
		}
		if len(runs) > 0 && !reflect.DeepEqual(r.counters, runs[0].counters) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("replay counters %+v differ from the first replay's %+v", r.counters, runs[0].counters))
		}
		rep.Attempted += cfg.p.Epochs * cfg.p.Queries
		rep.Failed += cfg.p.Epochs*cfg.p.Queries - r.served + r.failed
		runs = append(runs, r)
		if len(runs) >= 2 && time.Since(start)+time.Since(t0) > cfg.seconds {
			break
		}
	}
	rep.Runs = len(runs)
	rep.Samples = engs[0].perf.Served
	rep.Counters = runs[0].counters
	rep.Metrics = make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.values[name])
		}
		rep.Metrics[name] = metric{median(xs), unit}
	}
	var fbWait, recoverS, engWall, replayWall []float64
	for i, eng := range engs {
		fbWait = append(fbWait, ms(eng.perf.FeedbackWait)/float64(cfg.p.Epochs))
		recoverS = append(recoverS, eng.restart.Seconds())
		engWall = append(engWall, eng.perf.Elapsed.Seconds())
		replayWall = append(replayWall, runs[i].wall.Seconds())
	}
	rep.Metrics["feedback_wait_ms"] = metric{median(fbWait), "ms"}
	rep.Metrics["recover_s"] = metric{median(recoverS), "s"}
	rep.Metrics["trace.overhead"] = metric{median(replayWall) / median(engWall), "ratio"}
	return runs[0].spans, nil
}

// runReplay builds instance 0's network afresh and replays it traced; a
// journaled workload then restarts from its log under a wal.recover span.
func runReplay(cfg config, walDir string) (*tracedRun, error) {
	runtime.GC()
	if cfg.p.WAL {
		defer os.RemoveAll(walDir)
	}
	tr := newTracer()
	spec, s, lg, store, err := setUp(cfg, 0, walDir, tr)
	if err != nil {
		return nil, err
	}
	rp, err := newReplay(s, spec.Workload, lg, tr)
	if err != nil {
		return nil, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	digest, err := rp.run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	out := &tracedRun{digest: digest, inference: wal.DigestNetwork(rp.net)}
	l := &rp.layer
	out.served, out.failed = int(l.stats.Served), int(l.stats.Errors+l.stats.StaleEpochReads)
	out.counters = counters{
		CacheHits:      int(l.stats.CacheHits),
		Revalidated:    int(l.stats.Revalidated),
		Computed:       int(l.stats.Computed),
		RefreshWork:    l.refreshWork,
		DetectRounds:   l.rounds,
		RemoteMessages: l.remoteMsgs,
	}

	v := map[string]float64{}
	if lg != nil {
		st, _, failures, err := restart(cfg, lg, store, out.inference, tr)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		for _, f := range failures {
			out.failures = append(out.failures, "replay "+f)
		}
		out.counters.WALRecords, out.counters.WALBytes, out.counters.WALCkpts = st.Records, st.Bytes, st.Checkpoints
		v["wal.records"] = float64(st.Records)
		if st.Records > 0 {
			v["wal.bytes_per_record"] = float64(st.Bytes) / float64(st.Records)
		}
		v["wal.checkpoints"] = float64(st.Checkpoints)
	}

	out.spans = tr.spans
	self := selfTimes(tr.spans)
	for _, sp := range tr.spans {
		if sp.Name == "wal.sync" {
			v["wal.syncs"]++
		}
	}
	for _, name := range []string{"core.churn", "core.discover", "core.detect", "core.publish", "core.ingest",
		"core.refresh", "wal.sync", "wal.checkpoint", "wal.recover"} {
		v[name+".ms"] = ms(self[name])
	}
	v["core.churn.ops"] = float64(l.churnOps)
	v["core.discover.structures"] = float64(l.structures)
	v["core.detect.rounds"] = float64(l.rounds)
	v["core.detect.remote_msgs"] = float64(l.remoteMsgs)
	if l.rounds > 0 {
		v["core.detect.allocs_per_round"] = float64(l.detectAllocs) / float64(l.rounds)
	}
	v["core.publish.full"] = float64(l.publishFull)
	v["core.publish.delta_edges"] = float64(l.deltaEdges)
	v["core.ingest.observations"] = float64(l.observations)
	v["core.refresh.msg_updates"] = float64(l.refreshWork.MessageUpdates)
	v["core.refresh.touched_vars"] = float64(l.touchedVars)
	v["serve.answer.ms"] = float64(l.answerNs) / 1e6
	v["serve.feedback.ms"] = float64(l.feedbackNs)/1e6 + ms(self["serve.feedback"])
	v["serve.hit_p50_ns"] = medianNs(l.hitNs)
	v["serve.miss_p50_ns"] = medianNs(l.missNs)
	if l.stats.Served > 0 {
		served := float64(l.stats.Served)
		v["serve.hit_frac"] = float64(l.stats.CacheHits) / served
		v["serve.peers_per_answer"] = float64(l.visits) / served
		v["serve.records_per_answer"] = float64(l.records) / served
	}
	v["serve.revalidated"] = float64(l.stats.Revalidated)
	v["serve.computed"] = float64(l.stats.Computed)
	v["go.gc.count"] = float64(m1.NumGC - m0.NumGC)
	v["go.gc.pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	v["go.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	v["trace.coverage"] = coverage(tr.spans, rp.root)
	out.wall = time.Duration(tr.spans[rp.root].End - tr.spans[rp.root].Start)
	out.values = v
	return out, nil
}

func medianNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2])
}
