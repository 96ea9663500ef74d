package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogMatchesBenchmarkFile pins the metric names, units and
// directions the benchmark prints to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nin the benchmark:\n%v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nin the benchmark:\n%v", layer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, in the benchmark %v", names, workloadNames())
	}
}

// TestWorkloadsTiny runs every workload at its tiny size, untraced on the
// default seed and another seed, and traced on the default seed. Its
// checks must pass, and it must print exactly the declared metrics.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, c := range []struct {
			seed  uint64
			trace bool
		}{{defaultSeed, false}, {defaultSeed + 1, false}, {defaultSeed, true}} {
			t.Run(fmt.Sprintf("%s/seed=%d/trace=%v", name, c.seed, c.trace), func(t *testing.T) {
				res, err := run(options{workload: name, seed: c.seed, trace: c.trace, scale: "tiny"})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if c.trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("%s not printed", m.name)
					case got.Unit != m.unit:
						t.Errorf("%s: unit %q, want %q", m.name, got.Unit, m.unit)
					case !c.trace && !(got.Value > 0):
						t.Errorf("%s = %v, end-to-end metrics are never 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got != 3.7 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}
