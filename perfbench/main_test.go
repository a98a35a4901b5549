package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestToyScale runs every workload of BENCHMARK.json at toy scale with
// tracing off and on. Each run must pass its output checks and emit exactly
// the metrics BENCHMARK.json names, with their units; the traced run's layer
// spans must cover at least 95% of its wall time, and its overhead must be
// reported.
func TestToyScale(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		p, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, p: p.toy(), seed: 3, seconds: 1, trace: trace, out: t.TempDir()}
			rep, err := bench(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, f := range rep.Failures {
				t.Errorf("%s trace=%v: check failed: %s", w.Name, trace, f)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace {
				continue
			}
			if c := rep.Metrics["trace.coverage"].Value; c < 0.95 {
				t.Errorf("%s: layer spans cover %.3f of traced wall time, want ≥ 0.95", w.Name, c)
			}
			if o := rep.Metrics["trace.overhead"].Value; o <= 0 {
				t.Errorf("%s: trace.overhead = %v, want a positive ratio", w.Name, o)
			}
		}
	}
}

// TestResultLine checks the command-line contract: the last line of standard
// output is the JSON result, and bad arguments fail without printing one.
func TestResultLine(t *testing.T) {
	saved := workloads["churn"]
	workloads["churn"] = saved.toy()
	defer func() { workloads["churn"] = saved }()

	var out bytes.Buffer
	code, err := run([]string{"--workload", "churn", "--seed", "2", "--seconds", "1", "--trace", "0", "--out", t.TempDir()}, &out)
	if code != 0 || err != nil {
		t.Fatalf("run = %d, %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) == 0 {
		t.Errorf("result = %+v", res)
	}

	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "churn", "--trace", "2"},
		{"--workload", "churn", "--seconds", "0"},
	} {
		out.Reset()
		if code, _ := run(args, &out); code == 0 || out.Len() > 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no output", args, code, out.String())
		}
	}
}
