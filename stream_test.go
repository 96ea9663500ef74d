package stemroot

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

type sliceScanner struct {
	names []string
	times []float64
}

func (s sliceScanner) Scan(yield func(string, float64) bool) error {
	for i := range s.names {
		if !yield(s.names[i], s.times[i]) {
			return nil
		}
	}
	return nil
}

func TestSampleStreamEndToEnd(t *testing.T) {
	names, times := syntheticProfile(30000, 8)
	plan, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > plan.Epsilon {
		t.Fatalf("streaming error %v exceeds bound %v", rel, plan.Epsilon)
	}
	if n := len(plan.SampledIndices()); n == 0 || n >= len(times)/4 {
		t.Fatalf("sampled %d of %d", n, len(times))
	}
}

func TestSampleStreamTinyReservoir(t *testing.T) {
	names, times := syntheticProfile(10000, 9)
	plan, err := SampleStream(sliceScanner{names, times}, Options{},
		StreamOptions{ReservoirCap: 128})
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, tt := range times {
		truth += tt
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if rel := math.Abs(est-truth) / truth; rel > plan.Epsilon {
		t.Fatalf("tiny-reservoir error %v exceeds bound", rel)
	}
}

func TestSampleStreamErrors(t *testing.T) {
	if _, err := SampleStream(sliceScanner{}, Options{}, StreamOptions{}); err == nil {
		t.Fatal("expected error for empty stream")
	}
	names, times := syntheticProfile(100, 10)
	if _, err := SampleStream(sliceScanner{names, times}, Options{Epsilon: 5}, StreamOptions{}); err == nil {
		t.Fatal("expected bad-epsilon error")
	}

	// The single-pass planner's ingest boundary: after 200 valid
	// invocations, one time that is NaN, infinite or negative becomes a
	// sticky error naming its 0-based index, through both Add and AddBytes,
	// and Plan, CurrentPlan and Snapshot all return it — even after further
	// valid invocations.
	names, times = syntheticProfile(200, 15)
	const want = "stemroot: time %v at invocation 200 must be finite and non-negative"
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		for _, viaBytes := range []bool{false, true} {
			sp, err := NewStreamPlanner(Options{}, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			add := func(name string, tm float64) {
				if viaBytes {
					sp.AddBytes([]byte(name), tm)
				} else {
					sp.Add(name, tm)
				}
			}
			for i := range names {
				add(names[i], times[i])
			}
			add(names[0], bad)
			add(names[1], times[1])
			wantErr := fmt.Sprintf(want, bad)
			if _, err := sp.Plan(); err == nil || err.Error() != wantErr {
				t.Fatalf("time %v bytes=%v: Plan err = %v, want %q", bad, viaBytes, err, wantErr)
			}
			if _, err := sp.CurrentPlan(); err == nil || err.Error() != wantErr {
				t.Fatalf("time %v bytes=%v: CurrentPlan err = %v", bad, viaBytes, err)
			}
			if _, err := sp.Snapshot(); err == nil || err.Error() != wantErr {
				t.Fatalf("time %v bytes=%v: Snapshot err = %v", bad, viaBytes, err)
			}
			if sp.Count() != 200 {
				t.Fatalf("time %v bytes=%v: ingested %d invocations, want 200", bad, viaBytes, sp.Count())
			}
		}
	}
}

func TestSampleStreamSingleKernel(t *testing.T) {
	// One kernel, one narrow mode: the degenerate but legal trace.
	names := make([]string, 500)
	times := make([]float64, 500)
	for i := range names {
		names[i] = "only"
		times[i] = 3.5
	}
	plan, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) == 0 {
		t.Fatal("no clusters for single-kernel trace")
	}
	for _, c := range plan.Clusters {
		if c.Kernel != "only" {
			t.Fatalf("unexpected kernel %q", c.Kernel)
		}
	}
	est := plan.Estimate(func(i int) float64 { return times[i] })
	if math.Abs(est-3.5*500) > 1e-6 {
		t.Fatalf("constant-trace estimate %v, want %v", est, 3.5*500)
	}
}

// failingScanner errors after yielding failAfter rows, on pass number
// failOnPass (1-based) — to exercise error propagation from either
// streaming pass.
type failingScanner struct {
	names      []string
	times      []float64
	failOnPass int
	pass       int
}

func (s *failingScanner) Scan(yield func(string, float64) bool) error {
	s.pass++
	if s.pass == s.failOnPass {
		return errScannerBroke
	}
	for i := range s.names {
		if !yield(s.names[i], s.times[i]) {
			return nil
		}
	}
	return nil
}

var errScannerBroke = errors.New("scanner broke")

func TestSampleStreamScanErrorPropagation(t *testing.T) {
	names, times := syntheticProfile(1000, 11)
	for pass := 1; pass <= 2; pass++ {
		sc := &failingScanner{names: names, times: times, failOnPass: pass}
		_, err := SampleStream(sc, Options{}, StreamOptions{})
		if !errors.Is(err, errScannerBroke) {
			t.Fatalf("pass-%d scanner error not propagated: %v", pass, err)
		}
	}
}

func TestSampleStreamDeterministicAcrossRuns(t *testing.T) {
	// Fixed seed -> bit-identical plans (reservoir RNG, clustering, and
	// sample draws are all derived from the seed).
	names, times := syntheticProfile(20000, 12)
	a, err := SampleStream(sliceScanner{names, times}, Options{Seed: 99}, StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleStream(sliceScanner{names, times}, Options{Seed: 99}, StreamOptions{ReservoirCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated SampleStream runs differ at fixed seed")
	}
}

func TestStreamPlannerMatchesSampleStream(t *testing.T) {
	// The single-pass public planner reproduces the two-pass plan exactly
	// on an in-reservoir trace.
	names, times := syntheticProfile(3000, 13)
	want, err := SampleStream(sliceScanner{names, times}, Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStreamPlanner(Options{}, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		sp.Add(names[i], times[i])
	}
	got, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("StreamPlanner plan differs from two-pass SampleStream")
	}
}

func TestStreamPlannerSnapshot(t *testing.T) {
	names, times := syntheticProfile(20000, 14)
	sp, err := NewStreamPlanner(Options{}, StreamOptions{ReservoirCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Snapshot(); err == nil {
		t.Fatal("expected error snapshotting an empty stream")
	}
	var truth float64
	for i := range names {
		sp.Add(names[i], times[i])
		truth += times[i]
	}
	snap, err := sp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Invocations != 20000 || snap.Kernels == 0 || snap.Clusters == 0 {
		t.Fatalf("snapshot %+v", snap)
	}
	if math.Abs(snap.TotalTimeUS-truth)/truth > 1e-12 {
		t.Fatalf("snapshot total %v vs exact %v", snap.TotalTimeUS, truth)
	}
	// The rolling extrapolation is within the error bound of the truth.
	if rel := math.Abs(snap.ExtrapolatedUS-truth) / truth; rel > 0.05 {
		t.Fatalf("extrapolation off by %v (extrapolated %v, exact %v)", rel, snap.ExtrapolatedUS, truth)
	}
	if snap.DistinctTimeUS <= 0 || snap.DistinctTimeUS >= truth {
		t.Fatalf("distinct sampled time %v out of range", snap.DistinctTimeUS)
	}
}
