// Command perfbench is the repository's canonical benchmark. It generates a
// workload's load specs (one per instance) from a seed, runs them in-process
// through the public engine (sim.New/sim.NewDurable + Simulation.RunWorkload, and wal.Open +
// Log.Recover for the restart), checks the outputs, and prints every metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 a replay driver (replay.go) re-runs instance 0 epoch by
// epoch through the public layer calls, records a span around each, and the
// metrics are the per-layer ones. Results, the run stamp, the generated load
// specs and the spans are written under -out. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/wal"
)

// params are the knobs of one workload. They are recorded in the run stamp.
type params struct {
	// Instances is the number of independent networks a workload runs,
	// each generated from its own instance seed (see instanceSeed). The
	// cost of discovery and detection follows the number of short cycles
	// and parallel paths of a preferential-attachment overlay, which varies
	// by about 14% (coefficient of variation) from one 1000-peer topology
	// to the next; averaging over several topologies per measurement keeps
	// the metrics of different seeds comparable.
	Instances int     `json:"instances"`
	Peers     int     `json:"peers"`
	Epochs    int     `json:"epochs"`
	Events    int     `json:"events"` // churn events per epoch; -1 for a static network
	Queries   int     `json:"queriesPerEpoch"`
	Clients   int     `json:"clients"`
	Hot       float64 `json:"hot"`
	// MaxRounds caps every detection run. Loopy belief propagation on these
	// overlays converges in 60 to 140 rounds on some topologies and never on
	// others (it then runs to the scenario default of 300), so an uncapped
	// run's cost would depend mostly on the seed. A fixed round budget, as a
	// deployment running periodic rounds would have, makes the detection
	// work per epoch a function of the network size.
	MaxRounds int  `json:"maxRounds"`
	Feedback  bool `json:"feedback"`
	Pipeline  bool `json:"pipeline"`
	// WAL journals each instance to a wal.DirStorage with group fsync and
	// restarts from it afterwards.
	WAL             bool `json:"wal"`
	GroupEvery      int  `json:"groupEvery,omitempty"`
	CheckpointEvery int  `json:"checkpointEvery,omitempty"`
}

// workloads are the benchmark's traffic mixes. All are closed-loop: each
// client sends its next query when the previous answer returns, with no
// rate cap, in one process. BENCHMARK.json records why each was chosen.
var workloads = map[string]params{
	// Every epoch churns, re-discovers, re-detects and publishes in full to
	// a cold cache: detection, discovery and publish dominate.
	"churn": {Instances: 16, Peers: 1000, Epochs: 2, Events: 4, Queries: 40000, Clients: 2, Hot: 0.8, MaxRounds: 40},
	// A static network with every answer judged and the refresh pipelined
	// behind serving: the serve plane, cache revalidation and the feedback
	// write path dominate; discovery is bypassed after the first epoch.
	"hot-feedback": {Instances: 12, Peers: 1000, Epochs: 2, Events: -1, Queries: 25000, Clients: 2, Hot: 0.8, MaxRounds: 40,
		Feedback: true, Pipeline: true},
	// The churn mix with barrier-mode feedback journaled to disk, then a
	// restart: the only workload that appends, syncs, checkpoints and
	// recovers a write-ahead log.
	"durable": {Instances: 10, Peers: 1000, Epochs: 2, Events: 4, Queries: 20000, Clients: 2, Hot: 0.8, MaxRounds: 40,
		Feedback: true, WAL: true, GroupEvery: 32, CheckpointEvery: 5},
}

// toy shrinks a workload for the self-test.
func (p params) toy() params {
	p.Instances, p.Peers, p.Queries = 2, 60, 2000
	return p
}

// instanceSeed is the seed of instance j of a run with seed seed.
func instanceSeed(seed int64, j int) int64 { return seed*100 + int64(j) }

// genSpec generates one instance's load spec from its seed. The spec is
// self-contained: cmd/pdmsload -spec replays it (see replayCommand).
func genSpec(name string, p params, seed int64) (sim.LoadSpec, error) {
	sc, err := sim.Generate(sim.GenConfig{Seed: seed, Peers: p.Peers, Epochs: p.Epochs, Events: p.Events})
	if err != nil {
		return sim.LoadSpec{}, err
	}
	sc.Name = fmt.Sprintf("%s-%d", name, seed)
	sc.MaxRounds = p.MaxRounds
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0 // the workload serves the queries
	}
	return sim.LoadSpec{
		Scenario: sc,
		Workload: sim.Workload{
			Seed:            seed,
			Clients:         p.Clients,
			QueriesPerEpoch: p.Queries,
			Hot:             p.Hot,
			HotKeys:         16,
			CacheSize:       1 << 16,
			Records:         4,
			Vocab:           8,
			Feedback:        p.Feedback,
			FeedbackRate:    1,
			Pipeline:        p.Pipeline,
			PipelineAfter:   0.5,
		},
	}, nil
}

func (p params) walOptions() wal.Options {
	return wal.Options{Sync: wal.SyncGroup, GroupEvery: p.GroupEvery, CheckpointEvery: p.CheckpointEvery}
}

// replayCommand is the cmd/pdmsload invocation that replays an instance's
// end-to-end run from its spec file.
func replayCommand(p params) string {
	cmd := "go run ./cmd/pdmsload -spec <instance spec> -perf"
	if p.WAL {
		cmd += fmt.Sprintf(" -wal <dir> -fsync group -checkpoint-every %d", p.CheckpointEvery)
	}
	return cmd
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation records.
type report struct {
	Stamp     stamp    `json:"stamp"`
	Workload  string   `json:"workload"`
	Params    params   `json:"params"`
	Trace     bool     `json:"trace"`
	SpecFiles []string `json:"specFiles"`
	ReplayCmd string   `json:"replayCommand"`
	// Runs counts the measured passes: rounds over every instance with
	// tracing off, replays of instance 0 with tracing on.
	Runs int `json:"runs"`
	// Samples is the number of answers, and so of latency samples, per pass.
	Samples int               `json:"latencySamples"`
	Metrics map[string]metric `json:"metrics"`
	// Instances holds each instance's median end-to-end values (tracing
	// off), the numbers the reported medians are taken over.
	Instances []map[string]float64 `json:"instances,omitempty"`
	Counters  counters             `json:"counters"`
	Failures  []string             `json:"failures,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// config is one invocation's settings.
type config struct {
	workload string
	p        params
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags, runs the benchmark and prints the result. It returns
// the exit code: 0 when every output check passed, 1 when one failed (the
// result line is still printed), 2 when the benchmark could not run.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement time in seconds (at least two runs are made)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for results, specs, spans and the write-ahead log")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	p, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg := config{workload: *workload, p: p, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	rep, err := bench(cfg)
	if err != nil {
		return 2, err
	}
	printReport(stdout, rep)
	if len(rep.Failures) > 0 {
		return 1, fmt.Errorf("%d output check(s) failed", len(rep.Failures))
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench runs one invocation and writes its files under cfg.out/<workload>-seed<N>.
func bench(cfg config) (*report, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Stamp:     newStamp(cfg),
		Workload:  cfg.workload,
		Params:    cfg.p,
		Trace:     cfg.trace,
		ReplayCmd: replayCommand(cfg.p),
	}
	for j := 0; j < cfg.p.Instances; j++ {
		spec, err := genSpec(cfg.workload, cfg.p, instanceSeed(cfg.seed, j))
		if err != nil {
			return nil, err
		}
		f := filepath.Join(dir, fmt.Sprintf("instance-%d.spec.json", j))
		if err := writeJSON(f, spec); err != nil {
			return nil, err
		}
		rep.SpecFiles = append(rep.SpecFiles, f)
	}
	walDir := filepath.Join(dir, fmt.Sprintf("wal-%d", os.Getpid()))
	var spans []span
	var err error
	if cfg.trace {
		spans, err = traced(cfg, walDir, rep)
	} else {
		err = endToEnd(cfg, walDir, rep)
	}
	if err != nil {
		return nil, err
	}
	if spans != nil {
		if err := writeJSON(filepath.Join(dir, "spans.json"), spans); err != nil {
			return nil, err
		}
	}
	name := "trace0.json"
	if cfg.trace {
		name = "trace1.json"
	}
	if err := writeJSON(filepath.Join(dir, name), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric by name and unit, the deterministic
// counters, any failed check, and finally the one-line JSON result.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v runs=%d latency samples=%d (%s, %s, GOMAXPROCS=%d, %s)\n",
		rep.Workload, rep.Stamp.Seed, rep.Trace, rep.Runs, rep.Samples,
		rep.Stamp.GoVersion, rep.Stamp.CPUModel, rep.Stamp.GOMAXPROCS, rep.Stamp.Commit)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	c, _ := json.Marshal(rep.Counters)
	fmt.Fprintf(w, "  counters %s\n", c)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.Failures) == 0, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
