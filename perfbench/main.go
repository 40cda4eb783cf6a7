// Command perfbench is the GRAFICS benchmark. It runs one workload end to
// end in a single process — shard primaries, router and follower as
// in-process net/http servers on loopback, one load generator with at
// most GOMAXPROCS connections — checks every answer against the
// generated ground truth, and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload read-sharded --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --workload crowd-replicated --seed 1 --seconds 8 --trace 1
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run
// with the per-layer measurements added (a traced load phase, idle
// layer-by-layer chains, counted allocations, histogram deltas, fit
// stages) and reports those. BENCHMARK.json at the repository root names
// every metric, the workloads and their fixed parameters.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics a --trace 0 run reports; every other metric
// a run sets belongs to the traced run.
var endToEnd = []string{
	"setup_s", "read_p50_ms", "capacity_ops_s", "refit_s",
	"micro_f", "macro_f", "peak_heap_mib",
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool   // the smoke test's scale
	dir      string // state, journals and span files
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "read-sharded or crowd-replicated")
	seed := fs.Int64("seed", 1, "workload seed: corpora, splits and request schedules derive from it")
	seconds := fs.Int("seconds", 8, "length of the open-loop phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	c := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: ".bench_build"}
	if _, ok := workloads(false)[c.workload]; !ok {
		return c, fmt.Errorf("unknown -workload %q (want read-sharded or crowd-replicated)", c.workload)
	}
	if *trace != 0 && *trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1")
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("-seconds must be at least 1")
	}
	return c, nil
}

// run executes one invocation, writing its report to w.
func run(ctx context.Context, c config, w io.Writer) (result, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(c.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := &runner{
		w: w, wl: workloads(c.tiny)[c.workload], seconds: c.seconds, trace: c.trace,
		dir: dir, spans: &spanLog{}, metrics: map[string]metric{},
	}
	if err := r.run(ctx, c.seed); err != nil {
		return result{}, err
	}
	if c.trace {
		path := filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
		if err := r.spans.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	isE2E := map[string]bool{}
	for _, name := range endToEnd {
		isE2E[name] = true
	}
	for name, m := range r.metrics {
		if isE2E[name] != c.trace {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
			}
			res.Metrics[name] = m
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "metric %-30s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if len(r.problems) > 0 {
		fmt.Fprintf(w, "INCORRECT: %s\n", strings.Join(r.problems, "; "))
	}
	return res, nil
}

func main() {
	c, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
