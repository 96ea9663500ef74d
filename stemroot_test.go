package stemroot

import (
	"math"
	"testing"

	"stemroot/internal/rng"
)

func syntheticProfile(n int, seed uint64) ([]string, []float64) {
	r := rng.New(seed)
	names := make([]string, n)
	times := make([]float64, n)
	for i := range times {
		switch i % 3 {
		case 0:
			names[i] = "gemm"
			if i%6 == 0 {
				times[i] = 100 * (1 + 0.03*r.NormFloat64())
			} else {
				times[i] = 250 * (1 + 0.03*r.NormFloat64())
			}
		case 1:
			names[i] = "pool"
			times[i] = 40 * math.Exp(0.3*r.NormFloat64())
		default:
			names[i] = "relu"
			times[i] = 5 * (1 + 0.01*r.NormFloat64())
		}
		if times[i] < 0 {
			times[i] = 0
		}
	}
	return names, times
}

func TestSampleValidation(t *testing.T) {
	if _, err := Sample(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for empty profile")
	}
	if _, err := Sample([]string{"a"}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Sample([]string{"a", "a"}, []float64{1, bad}, Options{}); err == nil {
			t.Fatalf("expected error for time %v", bad)
		}
	}
	if _, err := Sample([]string{"a"}, []float64{1}, Options{Epsilon: 2}); err == nil {
		t.Fatal("expected error for bad epsilon")
	}
}

func TestSampleEndToEnd(t *testing.T) {
	names, times := syntheticProfile(9000, 1)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epsilon != 0.05 || plan.Confidence != 0.95 {
		t.Fatalf("defaults not applied: %+v", plan)
	}
	if plan.PredictedError > plan.Epsilon {
		t.Fatalf("predicted error %v exceeds epsilon", plan.PredictedError)
	}

	// Coverage: clusters partition all invocations.
	seen := make(map[int]bool)
	for _, c := range plan.Clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatal("invocation in two clusters")
			}
			seen[m] = true
		}
	}
	if len(seen) != len(times) {
		t.Fatalf("clusters cover %d of %d", len(seen), len(times))
	}

	// Accuracy: estimate within epsilon of the truth.
	var truth float64
	for _, x := range times {
		truth += x
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > plan.Epsilon {
		t.Fatalf("relative error %v exceeds %v", rel, plan.Epsilon)
	}

	// Efficiency: far fewer distinct simulations than invocations.
	if n := len(plan.SampledIndices()); n >= len(times)/4 {
		t.Fatalf("sampled %d of %d — no reduction", n, len(times))
	}
	if plan.TotalSamples() < len(plan.SampledIndices()) {
		t.Fatal("total samples below distinct count")
	}
}

func TestSampleFlatVsRoot(t *testing.T) {
	names, times := syntheticProfile(9000, 2)
	root, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Sample(names, times, Options{Flat: true})
	if err != nil {
		t.Fatal(err)
	}
	// ROOT splits the bimodal gemm; flat keeps one cluster per name.
	if len(root.Clusters) <= len(flat.Clusters) {
		t.Fatalf("ROOT clusters (%d) should exceed flat (%d)", len(root.Clusters), len(flat.Clusters))
	}
}

func TestSampleSizeAPI(t *testing.T) {
	m, err := SampleSize(100000, 10, 5, 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if m != 385 {
		t.Fatalf("m = %d, want 385", m)
	}
	if _, err := SampleSize(10, 1, 1, 0, 0.95); err == nil {
		t.Fatal("expected epsilon error")
	}
	if _, err := SampleSize(10, 1, 1, 0.05, 1); err == nil {
		t.Fatal("expected confidence error")
	}
}

func TestZScoreAPI(t *testing.T) {
	z, err := ZScore(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.96) > 0.001 {
		t.Fatalf("z = %v", z)
	}
	if _, err := ZScore(0); err == nil {
		t.Fatal("expected error")
	}
}

func TestOptionsOverride(t *testing.T) {
	names, times := syntheticProfile(6000, 3)
	tight, err := Sample(names, times, Options{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Sample(names, times, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if tight.TotalSamples() <= loose.TotalSamples() {
		t.Fatalf("tight bound should need more samples: %d vs %d",
			tight.TotalSamples(), loose.TotalSamples())
	}
}
