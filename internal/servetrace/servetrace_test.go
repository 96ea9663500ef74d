package servetrace

import (
	"bytes"
	"testing"

	"stemroot/internal/trace"
)

func TestStreamExactCountAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 7, 1000, 54321} {
		s := New(Config{Seed: 3, Invocations: n})
		var names1 []string
		var times1 []float64
		if err := s.Scan(func(name string, v float64) bool {
			names1 = append(names1, name)
			times1 = append(times1, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(names1) != n {
			t.Fatalf("Invocations=%d emitted %d rows", n, len(names1))
		}
		// Re-scan: bit-identical replay.
		i := 0
		if err := s.Scan(func(name string, v float64) bool {
			if names1[i] != name || times1[i] != v {
				t.Fatalf("row %d differs on re-scan: (%q,%v) vs (%q,%v)", i, name, v, names1[i], times1[i])
			}
			i++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if i != n {
			t.Fatalf("re-scan emitted %d rows", i)
		}
	}
}

func TestStreamKernelMix(t *testing.T) {
	s := New(Config{Seed: 5, Invocations: 200000})
	seen := map[string]int{}
	var total float64
	if err := s.Scan(func(name string, v float64) bool {
		seen[name]++
		total += v
		if v <= 0 {
			t.Fatalf("non-positive duration %v for %q", v, name)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != s.NumKernels() {
		t.Fatalf("distinct kernels %d, want %d", len(seen), s.NumKernels())
	}
	// Decode dominates prefill in invocation count (many tokens/request).
	if seen["attn_decode_l0"] < 4*seen["attn_prefill_l0"] {
		t.Fatalf("decode/prefill mix off: %d decode vs %d prefill",
			seen["attn_decode_l0"], seen["attn_prefill_l0"])
	}
	if total <= 0 {
		t.Fatal("zero total time")
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	sum := func(seed uint64) float64 {
		var s float64
		_ = New(Config{Seed: seed, Invocations: 5000}).Scan(func(_ string, v float64) bool {
			s += v
			return true
		})
		return s
	}
	if sum(1) == sum(2) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestStreamEarlyStopAndErrors(t *testing.T) {
	if err := New(Config{}).Scan(func(string, float64) bool { return true }); err == nil {
		t.Fatal("expected error for zero invocations")
	}
	count := 0
	if err := New(Config{Seed: 1, Invocations: 1000}).Scan(func(string, float64) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	s := New(Config{Seed: 9, Invocations: 3000})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	names, times, err := trace.ReadProfileCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3000 {
		t.Fatalf("CSV rows %d", len(names))
	}
	// The parsed CSV replays the generated stream exactly ('g',-1 float
	// formatting round-trips float64).
	i := 0
	if err := s.Scan(func(name string, v float64) bool {
		if names[i] != name || times[i] != v {
			t.Fatalf("row %d: CSV (%q,%v) vs stream (%q,%v)", i, names[i], times[i], name, v)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBatchDependence(t *testing.T) {
	// Batch-size dependence: decode kernel durations must not be constant
	// — load swings (diurnal + bursts) must show up as duration spread.
	s := New(Config{Seed: 13, Invocations: 100000})
	lo, hi := 1e18, 0.0
	if err := s.Scan(func(name string, v float64) bool {
		if name == "mlp_decode_l0" {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if hi/lo < 1.5 {
		t.Fatalf("decode durations nearly constant (%v..%v) — no batch dependence", lo, hi)
	}
}
