package gpu_test

import (
	"runtime"
	"testing"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/simcache"
	"stemroot/internal/trace"
)

// unclampProcs raises GOMAXPROCS so parallel.Workers does not collapse every
// pool to one goroutine on a small CI machine — the scheduling interleavings
// these tests exist to exercise (steals, out-of-order commits) need real
// concurrent workers. Restored on cleanup.
func unclampProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// skewedSpecAt builds a spec generator with adversarially skewed costs: one
// early index in each block of 16 is a giant kernel (hundreds of times the
// work of its neighbors), the rest are tiny. Under static striping the
// worker owning the giants serializes the run; work stealing must drain the
// cheap segments onto other workers. Cost skew lives entirely in the spec —
// a pure function of i — so results stay a pure function of the input.
func skewedSpecAt(lim kernelgen.Limits) func(i int) kernelgen.Spec {
	return func(i int) kernelgen.Spec {
		work := int64(2e4)
		if i%16 == 1 {
			work = 8e6
		}
		inv := trace.Invocation{
			Seq:   i + 1,
			Name:  "skew",
			Grid:  trace.Dim3{X: 16 + i%7},
			Block: trace.Dim3{X: 128},
			Latent: trace.Latent{
				MemIntensity:   0.2 + 0.05*float64(i%9),
				FootprintBytes: 1 << 20,
				Locality:       0.5,
				ComputeWork:    work,
			},
			BBVSeed: uint64(i)*2654435761 + 7,
		}
		return kernelgen.FromInvocation(&inv, lim)
	}
}

// TestRunSegmentedStealingDeterministicSkewed pins the tentpole contract of
// the work-stealing executor: under adversarially skewed segment costs —
// the exact shape that forces steals and out-of-order segment completion —
// per-invocation results AND the folded cycle total are bit-identical to
// the serial path at every worker count. Run under -race this also proves
// the warm per-worker simulators and the ordered-commit layer share nothing
// unsynchronized.
func TestRunSegmentedStealingDeterministicSkewed(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := skewedSpecAt(lim)
	const n, segLen = 96, 4

	want, wantTotal, err := gpu.RunSegmentedFunc(cfg, n, specAt, segLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, total, err := gpu.RunSegmentedFunc(cfg, n, specAt, segLen, workers)
		if err != nil {
			t.Fatal(err)
		}
		if total != wantTotal {
			t.Fatalf("workers=%d: total %v, serial %v", workers, total, wantTotal)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: invocation %d = %+v, serial %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunSegmentedStealingCachedDeterministicSkewed is the cached-path
// variant: the committer publishes shared cache-owned slices (copy, never
// alias) in segment order, and a second pass against the primed cache — all
// hits, arriving in steal-scrambled order — must still be bit-identical.
func TestRunSegmentedStealingCachedDeterministicSkewed(t *testing.T) {
	unclampProcs(t, 8)
	cfg := gpu.Baseline()
	lim := kernelgen.DSELimits()
	specAt := skewedSpecAt(lim)
	const n, segLen = 96, 4

	want, wantTotal, err := gpu.RunSegmentedFunc(cfg, n, specAt, segLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{2, 4, 8} {
			got, total, err := gpu.RunSegmentedCached(cfg, n, specAt, segLen, workers, cache)
			if err != nil {
				t.Fatal(err)
			}
			if total != wantTotal {
				t.Fatalf("pass=%d workers=%d: total %v, serial %v", pass, workers, total, wantTotal)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass=%d workers=%d: invocation %d differs from serial", pass, workers, i)
				}
			}
		}
	}
}
