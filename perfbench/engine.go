package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wal"
)

// counters is the deterministic block: quantities that depend only on the
// spec, never on the machine or the goroutine schedule. Two runs of one seed
// must produce identical counters.
type counters struct {
	CacheHits   int             `json:"cacheHits"`
	Revalidated int             `json:"revalidated"`
	Computed    int             `json:"computed"`
	RefreshWork core.DetectWork `json:"refreshWork"`
	WALRecords  int             `json:"walRecords"`
	WALBytes    int64           `json:"walBytes"`
	WALCkpts    int             `json:"walCheckpoints"`
	// Traced runs only: the replay's per-epoch detection totals.
	DetectRounds   int `json:"detectRounds,omitempty"`
	RemoteMessages int `json:"remoteMessages,omitempty"`
}

// engineRun is one untraced run of a workload spec through the public engine.
type engineRun struct {
	setup    time.Duration
	res      *sim.WorkloadResult
	perf     *sim.WorkloadPerf
	digest   string // wal.DigestNetwork of the final live network
	restart  time.Duration
	counters counters
	failures []string
}

// setUp generates instance j's spec and builds its simulation. A journaled
// workload first opens a fresh log in walDir, over a storage that records
// spans when tr is non-nil; the caller removes walDir.
func setUp(cfg config, j int, walDir string, tr *tracer) (sim.LoadSpec, *sim.Simulation, *wal.Log, wal.Storage, error) {
	spec, err := genSpec(cfg.workload, cfg.p, instanceSeed(cfg.seed, j))
	if err != nil {
		return spec, nil, nil, nil, err
	}
	if !cfg.p.WAL {
		s, err := sim.New(spec.Scenario)
		return spec, s, nil, nil, err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return spec, nil, nil, nil, err
	}
	dir, err := wal.NewDirStorage(walDir)
	if err != nil {
		return spec, nil, nil, nil, err
	}
	var store wal.Storage = dir
	if tr != nil {
		store = timedStorage{Storage: dir, tr: tr}
	}
	lg, err := wal.Open(store, cfg.p.walOptions())
	if err != nil {
		return spec, nil, nil, nil, err
	}
	s, err := sim.NewDurable(spec.Scenario, lg)
	return spec, s, lg, store, err
}

// restart syncs and closes the live log, reopens its storage and recovers,
// and checks the recovered network against the live network's digest. It
// returns the live log's counters, the time the reopen and recovery took and
// any failed check. With a tracer, the recovery runs under a wal.recover span.
func restart(cfg config, lg *wal.Log, store wal.Storage, liveDigest string, tr *tracer) (wal.Stats, time.Duration, []string, error) {
	if err := lg.Sync(); err != nil {
		return wal.Stats{}, 0, nil, err
	}
	st := lg.Stats()
	if err := lg.Close(); err != nil {
		return st, 0, nil, err
	}
	if tr != nil {
		tr.push("wal.recover")
	}
	t0 := time.Now()
	lg2, err := wal.Open(store, cfg.p.walOptions())
	var rec *core.Network
	var rrep wal.RecoverReport
	if err == nil {
		rec, rrep, err = lg2.Recover()
		lg2.Close() // only read from
	}
	took := time.Since(t0)
	if tr != nil {
		tr.pop()
	}
	if err != nil {
		return st, took, nil, fmt.Errorf("recovering the log: %w", err)
	}
	var failures []string
	if !rrep.DigestOK {
		failures = append(failures, "recover: checkpoint digest did not verify")
	}
	if got := wal.DigestNetwork(rec); got != liveDigest {
		failures = append(failures, fmt.Sprintf("recover: inference digest %.12s, live network %.12s", got, liveDigest))
	}
	return st, took, failures, nil
}

// runEngine sets up instance j (spec generation, network build and, for a
// journaled workload, opening the log), runs it with RunWorkload, and for a
// journaled workload restarts from the log.
func runEngine(cfg config, j int, walDir string) (*engineRun, error) {
	runtime.GC() // start every run from a collected heap
	if cfg.p.WAL {
		defer os.RemoveAll(walDir)
	}
	t0 := time.Now()
	spec, s, lg, store, err := setUp(cfg, j, walDir, nil)
	if err != nil {
		return nil, err
	}
	r := &engineRun{setup: time.Since(t0)}

	r.res, r.perf, err = s.RunWorkload(spec.Workload, nil)
	if err != nil {
		return nil, err
	}
	r.digest = wal.DigestNetwork(s.Network())
	for _, ep := range r.res.Epochs {
		r.counters.CacheHits += ep.CacheHits
		r.counters.Revalidated += ep.Revalidated
		r.counters.Computed += ep.Computed
	}
	r.counters.RefreshWork = r.perf.Work
	r.failures = checkServed(cfg.p, r.res)

	if lg != nil {
		st, took, failures, err := restart(cfg, lg, store, r.digest, nil)
		if err != nil {
			return nil, err
		}
		r.restart = took
		r.failures = append(r.failures, failures...)
		r.counters.WALRecords, r.counters.WALBytes, r.counters.WALCkpts = st.Records, st.Bytes, st.Checkpoints
	}
	return r, nil
}

// checkServed checks that every query of every epoch was answered, without
// errors or stale reads.
func checkServed(p params, res *sim.WorkloadResult) []string {
	var out []string
	if want := p.Epochs * p.Queries; res.TotalServed != want {
		out = append(out, fmt.Sprintf("served %d answers, want epochs × queries = %d", res.TotalServed, want))
	}
	for _, ep := range res.Epochs {
		if ep.Errors > 0 || ep.StaleReads > 0 {
			out = append(out, fmt.Sprintf("epoch %d: %d errors, %d stale reads", ep.Epoch, ep.Errors, ep.StaleReads))
		}
	}
	return out
}

// failedAnswers counts errors, stale reads and unserved queries of a run.
func failedAnswers(p params, res *sim.WorkloadResult) int {
	n := p.Epochs*p.Queries - res.TotalServed
	for _, ep := range res.Epochs {
		n += ep.Errors + ep.StaleReads
	}
	return n
}

// compareRuns checks the outputs that must repeat exactly across runs of one
// seed.
func compareRuns(first, r *engineRun) []string {
	var out []string
	if r.res.Digest != first.res.Digest {
		out = append(out, fmt.Sprintf("answer digest %.12s differs from the first run's %.12s", r.res.Digest, first.res.Digest))
	}
	if r.digest != first.digest {
		out = append(out, fmt.Sprintf("inference digest %.12s differs from the first run's %.12s", r.digest, first.digest))
	}
	if !reflect.DeepEqual(r.counters, first.counters) {
		out = append(out, fmt.Sprintf("deterministic counters %+v differ from the first run's %+v", r.counters, first.counters))
	}
	return out
}

// endToEnd measures the end-to-end metrics with tracing off. It runs every
// instance once, from scratch, set-up included, then runs them again in
// order while another run fits in cfg.seconds (instance 0 at least twice,
// for the repeat check). Each instance's value of a metric is its median
// over the instance's runs; the reported value is the interquartile mean
// over instances (see iqm).
func endToEnd(cfg config, walDir string, rep *report) error {
	start := time.Now()
	runs := make([][]*engineRun, cfg.p.Instances)
	for n := 0; ; n++ {
		j := n % cfg.p.Instances
		t0 := time.Now()
		r, err := runEngine(cfg, j, walDir)
		if err != nil {
			return fmt.Errorf("instance %d: %w", j, err)
		}
		rep.Failures = append(rep.Failures, r.failures...)
		if len(runs[j]) > 0 {
			for _, f := range compareRuns(runs[j][0], r) {
				rep.Failures = append(rep.Failures, fmt.Sprintf("instance %d: %s", j, f))
			}
		}
		rep.Attempted += cfg.p.Epochs * cfg.p.Queries
		rep.Failed += failedAnswers(cfg.p, r.res)
		runs[j] = append(runs[j], r)
		rep.Runs++
		if n >= cfg.p.Instances && time.Since(start)+time.Since(t0) > cfg.seconds {
			break
		}
	}

	epochs := float64(cfg.p.Epochs)
	measures := map[string]struct {
		unit string
		f    func(*engineRun) float64
	}{
		"answers_per_s": {"1/s", func(r *engineRun) float64 { return r.perf.Throughput }},
		"answer_p50_us": {"us", func(r *engineRun) float64 { return us(r.perf.P50) }},
		"answer_p99_us": {"us", func(r *engineRun) float64 { return us(r.perf.P99) }},
		"barrier_ms": {"ms", func(r *engineRun) float64 {
			return ms(r.perf.Elapsed-r.perf.ServeElapsed-r.perf.FeedbackWait) / epochs
		}},
		"setup_s": {"s", func(r *engineRun) float64 { return r.setup.Seconds() }},
	}
	rep.Instances = make([]map[string]float64, len(runs))
	rep.Metrics = map[string]metric{"max_rss_mb": {maxRSSMB(), "MB"}}
	for name, m := range measures {
		var vals []float64
		for j, rs := range runs {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, m.f(r))
			}
			if rep.Instances[j] == nil {
				rep.Instances[j] = map[string]float64{}
			}
			rep.Instances[j][name] = median(xs)
			vals = append(vals, median(xs))
		}
		rep.Metrics[name] = metric{iqm(vals), m.unit}
	}
	for _, rs := range runs {
		rep.Samples += rs[0].perf.Served
		c := &rep.Counters
		c.CacheHits += rs[0].counters.CacheHits
		c.Revalidated += rs[0].counters.Revalidated
		c.Computed += rs[0].counters.Computed
		c.RefreshWork.Add(rs[0].counters.RefreshWork)
		c.WALRecords += rs[0].counters.WALRecords
		c.WALBytes += rs[0].counters.WALBytes
		c.WALCkpts += rs[0].counters.WALCkpts
	}
	return nil
}
