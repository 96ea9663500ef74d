package workloads

import (
	"fmt"
	"reflect"
	"testing"

	"stemroot/internal/hwmodel"
	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

func TestFromProfileDeterministic(t *testing.T) {
	names := []string{"gemm", "relu", "gemm", "gemm", "softmax", "relu"}
	times := []float64{100, 5, 300, 100, 12, 5}
	a := FromProfile("trace.csv", names, times, 7)
	b := FromProfile("trace.csv", names, times, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FromProfile is not deterministic")
	}
	if a.Len() != len(names) {
		t.Fatalf("got %d invocations, want %d", a.Len(), len(names))
	}
	if a.Suite != SuiteProfile {
		t.Fatalf("suite = %q", a.Suite)
	}
	for i, inv := range a.Invs {
		if inv.Name != names[i] {
			t.Fatalf("invocation %d name %q, want %q", i, inv.Name, names[i])
		}
	}
}

func TestFromProfileWorkTracksTime(t *testing.T) {
	// The 300us gemm call must reconstruct with ~3x the compute work of the
	// 100us calls: relative per-invocation cost is the structure the profile
	// attests.
	names := []string{"gemm", "gemm", "gemm"}
	times := []float64{100, 300, 100}
	w := FromProfile("trace.csv", names, times, 1)
	w0 := float64(w.Invs[0].Latent.ComputeWork)
	w1 := float64(w.Invs[1].Latent.ComputeWork)
	if ratio := w1 / w0; ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("work ratio = %.2f, want ~3", ratio)
	}
	// Different seeds reconstruct different kernel characteristics.
	v := FromProfile("trace.csv", names, times, 2)
	if v.Invs[0].Latent.Locality == w.Invs[0].Latent.Locality &&
		v.Invs[0].Latent.FootprintBytes == w.Invs[0].Latent.FootprintBytes {
		t.Fatal("seed does not influence reconstruction")
	}
}

// fromProfileReference is the straightforward reconstruction FromProfile
// must reproduce exactly: a string-keyed map per statistic and an unsized
// builder.
func fromProfileReference(name string, names []string, timesUS []float64, seed uint64) *trace.Workload {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for i, n := range names {
		sums[n] += timesUS[i]
		counts[n]++
	}

	b := NewBuilder(name, SuiteProfile, seed)
	defs := make(map[string]*KernelDef)
	defFor := func(n string) *KernelDef {
		if d := defs[n]; d != nil {
			return d
		}
		mean := sums[n] / float64(counts[n])
		if mean <= 0 {
			mean = 1
		}
		r := rng.New(rng.Derive(seed, rng.HashString(n), 0x9e0f))
		blocks := 16 + r.Intn(80)
		threads := 128 + 32*r.Intn(5)
		d := &KernelDef{
			Name:                n,
			Grid:                trace.Dim3{X: blocks, Y: 1, Z: 1},
			Block:               trace.Dim3{X: threads, Y: 1, Z: 1},
			MemIntensity:        0.2 + 0.5*r.Float64(),
			Locality:            0.4 + 0.5*r.Float64(),
			RandomAccess:        0.3 * r.Float64(),
			FP16Frac:            0.3 * r.Float64(),
			BranchDiv:           0.2 * r.Float64(),
			Work:                int64(mean*2000) + 1000,
			Footprint:           int64(float64(64<<10) * (1 + 15*r.Float64())),
			InstrsScaleWithWork: true,
			RegPerThread:        24 + 8*r.Float64(),
		}
		defs[n] = d
		return d
	}

	for i, n := range names {
		d := defFor(n)
		mean := sums[n] / float64(counts[n])
		trend := 1.0
		if mean > 0 && timesUS[i] > 0 {
			trend = timesUS[i] / mean
		}
		b.Add(d, 0, trend)
	}
	return b.Workload()
}

// profileOf returns the kernel-level profile the RTX 2080 model measures
// for w: the input `stemroot -simulate` reconstructs from.
func profileOf(w *trace.Workload) ([]string, []float64) {
	names := make([]string, w.Len())
	for i := range w.Invs {
		names[i] = w.Invs[i].Name
	}
	return names, hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w).TimeUS
}

func TestFromProfileMatchesReference(t *testing.T) {
	check := func(label string, names []string, times []float64) {
		t.Helper()
		got := FromProfile(label, names, times, 3)
		want := fromProfileReference(label, names, times, 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FromProfile differs from the map-based reference", label)
		}
	}
	for _, w := range append(CASIO(1, 0.05), HuggingFace(1, 0.05)...) {
		names, times := profileOf(w)
		check(w.Suite+"/"+w.Name, names, times)
	}

	late := make([]string, 200)
	lateTimes := make([]float64, 200)
	for i := range late {
		late[i] = "gemm"
		lateTimes[i] = float64(50 + i%7)
	}
	late[150], late[199] = "softmax", "layernorm" // first seen near the end
	lateTimes[199] = 0

	for label, c := range map[string]struct {
		names []string
		times []float64
	}{
		"one kernel":  {[]string{"gemm"}, []float64{42}},
		"all equal":   {[]string{"a", "b", "a", "b", "a"}, []float64{7, 7, 7, 7, 7}},
		"zero times":  {[]string{"a", "b", "a"}, []float64{0, 0, 0}},
		"mixed zeros": {[]string{"a", "a", "b"}, []float64{0, 3, 0}},
		"late names":  {late, lateTimes},
	} {
		check(label, c.names, c.times)
	}
}

// syntheticProfile returns rows invocations cycling over kernels names.
func syntheticProfile(rows, kernels int) ([]string, []float64) {
	pool := make([]string, kernels)
	for k := range pool {
		pool[k] = fmt.Sprintf("kernel_%d", k)
	}
	names := make([]string, rows)
	times := make([]float64, rows)
	for i := range names {
		names[i] = pool[(i*7)%kernels]
		times[i] = 10 + float64((i*37)%1000)/8
	}
	return names, times
}

func TestFromProfileAllocsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) float64 {
		names, times := syntheticProfile(rows, 12)
		return testing.AllocsPerRun(2, func() { FromProfile("p", names, times, 1) })
	}
	if a10k, a100k := allocs(10000), allocs(100000); a10k != a100k {
		t.Fatalf("FromProfile allocations depend on rows: %v at 10k, %v at 100k", a10k, a100k)
	}
}

func BenchmarkFromProfile(b *testing.B) {
	var names []string
	var times []float64
	for _, w := range HuggingFace(1, 0.05) {
		n, t := profileOf(w)
		names, times = append(names, n...), append(times, t...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := FromProfile("hf", names, times, 1); w.Len() != len(names) {
			b.Fatalf("built %d of %d invocations", w.Len(), len(names))
		}
	}
}
