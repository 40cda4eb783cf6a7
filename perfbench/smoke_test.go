package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
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

// TestSmoke runs every workload of BENCHMARK.json at tiny scale, untraced
// and traced, and checks that each run is correct and emits exactly the
// metrics the file names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			c := config{workload: wl.Name, seed: 3, seconds: 1, trace: traced, tiny: true, dir: t.TempDir()}
			res, err := run(context.Background(), c, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", wl.Name, traced, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, traced, name)
				}
			}
		}
	}
}
