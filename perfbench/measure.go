package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	_ "embed"
)

// runner is one workload after set-up.
type runner interface {
	// pass runs one unit of the workload's closed loop. tr is nil on
	// untraced passes. Failures are counted in the returned passOut.
	pass(tr *tracer) *passOut
	// probe makes separate calls into layers the pass's composite calls
	// hide, on the same inputs, and records them in tr. It runs after a
	// traced pass, outside the pass's timing.
	probe(tr *tracer)
}

// passOut is what one pass reports.
type passOut struct {
	// calls are the latencies (seconds) of the workload's unit calls.
	calls []float64
	// ops counts operations attempted; failed those that returned an error
	// or failed an output check.
	ops, failed int
	// digest covers every output the pass returned through public APIs.
	digest [32]byte
	// values are workload metrics: host times from this pass and
	// deterministic outputs (accuracy, counts).
	values map[string]float64
}

// fail records a failed operation.
func (o *passOut) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// registry maps each workload to its set-up, which builds the inputs from
// the seed at the given scale.
var registry = map[string]func(seed uint64, scale string) (runner, error){
	"dse":      setupDSE,
	"validate": setupValidate,
	"stream":   setupStream,
	"kernel":   setupKernel,
}

// passRec is one measured pass.
type passRec struct {
	traced    bool
	wall, cpu float64
	// peakMiB is the heap high-water mark above the pre-pass live heap;
	// allocMiB the bytes allocated during the pass.
	peakMiB, allocMiB float64
	out               *passOut
	tr                *tracer
}

// Set-up runs at least setupMin times, and up to setupMax times while the
// repeats take less than setupBudget seconds in total; setup_s is the
// median.
const (
	setupMin    = 3
	setupMax    = 15
	setupBudget = 4.0
)

//go:embed digests.json
var digestsJSON []byte

func run(o options) (*result, error) {
	setup, ok := registry[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.scale != "full" && o.scale != "tiny" {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	var recorded map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}

	var r runner
	var setups []float64
	for len(setups) < setupMin || (len(setups) < setupMax && sum(setups) < setupBudget) {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = setup(o.seed, o.scale)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.4fs (median of %v)\n", median(setups), setups)

	origin := time.Now()
	var recs []passRec
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	for i := 0; ; i++ {
		rec := measurePass(r, o.trace && i%2 == 1, origin, i)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d traced=%v wall=%.4fs cpu=%.4fs peak=%.1fMiB alloc=%.1fMiB calls=%d\n",
			i, rec.traced, rec.wall, rec.cpu, rec.peakMiB, rec.allocMiB, len(rec.out.calls))
		recs = append(recs, rec)
		if time.Since(origin).Seconds() >= o.seconds && len(recs) >= minPasses {
			break
		}
	}

	res := &result{Metrics: make(map[string]metricValue)}
	tracers := checkRun(o, r, recs, recorded[o.workload+"/"+o.scale], res)
	if o.trace && o.spans != "" {
		if err := writeSpans(o.spans, tracers); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	untraced, traced := split(recs)
	if o.trace {
		vals := perLayerValues(untraced, traced, res)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		return res, nil
	}
	var calls []float64
	for _, rec := range untraced {
		calls = append(calls, rec.out.calls...)
	}
	vals := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(field(untraced, func(p passRec) float64 { return p.wall })),
		"call_p50_ms": median(calls) * 1e3,
		"alloc_mib":   median(field(untraced, func(p passRec) float64 { return p.allocMiB })),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// checkRun counts every pass's operations and failures into res and adds
// the checks that span passes: all passes, traced or not, return the same
// outputs and simulated statistics, and on the default seed they match the
// recorded digest. It returns the tracers of the run's traced passes.
func checkRun(o options, r runner, recs []passRec, recorded string, res *result) []*tracer {
	check := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
		}
	}
	var tracers []*tracer
	for i, rec := range recs {
		res.Attempted += rec.out.ops
		res.Failed += rec.out.failed
		if i > 0 {
			check(rec.out.digest == recs[0].out.digest,
				"pass %d (traced=%v) outputs differ from pass 0", i, rec.traced)
		}
		if rec.tr != nil {
			tracers = append(tracers, rec.tr)
		}
	}
	for i, tr := range tracers[min(1, len(tracers)):] {
		check(tr.simDigest() == tracers[0].simDigest(),
			"traced pass %d simulated statistics differ from the first traced pass", i+1)
	}
	if o.seed == defaultSeed {
		if len(tracers) == 0 {
			// The simulated statistics are only visible through the traced
			// cache seam: one untimed traced pass supplies them.
			v := measurePass(r, true, time.Now(), len(recs))
			res.Attempted += v.out.ops
			res.Failed += v.out.failed
			check(v.out.digest == recs[0].out.digest, "verification pass outputs differ from pass 0")
			tracers = append(tracers, v.tr)
		}
		sim := tracers[0].simDigest()
		d := newDigester()
		d.h.Write(recs[0].out.digest[:])
		d.h.Write(sim[:])
		digest := d.sum()
		got := hex.EncodeToString(digest[:])
		key := o.workload + "/" + o.scale
		fmt.Fprintf(os.Stderr, "perfbench: digest %s %s\n", key, got)
		check(got == recorded, "digest %s = %s, recorded %q", key, got, recorded)
	}
	res.Correct = res.Failed == 0
	return tracers
}

// measurePass runs one pass with host time, CPU time and peak heap
// measured around it.
func measurePass(r runner, traced bool, origin time.Time, idx int) passRec {
	rec := passRec{traced: traced}
	if traced {
		rec.tr = newTracer(origin, idx)
	}
	runtime.GC()
	base := readMetric(heapMetric)
	alloc0 := readMetric(allocMetric)
	stop := sampleHeapPeak()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	id := rec.tr.begin("bench.pass")
	rec.out = r.pass(rec.tr)
	rec.tr.end(id)
	rec.wall = time.Since(t0).Seconds()
	rec.cpu = cpuSeconds() - cpu0
	peak := stop()
	rec.allocMiB = float64(readMetric(allocMetric)-alloc0) / (1 << 20)
	rec.peakMiB = float64(peak-base) / (1 << 20)
	if traced {
		id := rec.tr.begin("bench.probe")
		r.probe(rec.tr)
		rec.tr.end(id)
	}
	return rec
}

// perLayerValues computes the traced-run metrics. Host-time values come
// from the untraced passes, layer times and counts from the traced ones;
// each is the median over its passes.
func perLayerValues(untraced, traced []passRec, res *result) map[string]float64 {
	out := make(map[string]float64)
	wall := median(field(untraced, func(p passRec) float64 { return p.wall }))
	twall := median(field(traced, func(p passRec) float64 { return p.wall }))
	out["bench.trace_overhead_pct"] = (twall/wall - 1) * 100
	out["bench.failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	out["bench.passes"] = float64(len(untraced) + len(traced))
	var calls []float64
	for _, rec := range untraced {
		calls = append(calls, rec.out.calls...)
	}
	out["bench.calls"] = float64(len(calls))
	out["bench.call_p90_ms"] = quantile(calls, 0.9) * 1e3
	out["peak_heap_mib"] = median(field(untraced, func(p passRec) float64 { return p.peakMiB }))
	out["parallel.cpu_util"] = median(field(untraced, func(p passRec) float64 { return p.cpu / p.wall }))

	// Workload values: medians over the untraced passes.
	keys := make(map[string]bool)
	for _, rec := range untraced {
		for k := range rec.out.values {
			keys[k] = true
		}
	}
	for k := range keys {
		out[k] = median(field(untraced, func(p passRec) float64 { return p.out.values[k] }))
	}

	// Layer sums: medians over the traced passes.
	keys = make(map[string]bool)
	for _, rec := range traced {
		for k := range rec.tr.sums {
			keys[k] = true
		}
	}
	for k := range keys {
		if _, ok := out[k]; !ok {
			out[k] = median(field(traced, func(p passRec) float64 { return p.tr.sums[k] }))
		}
	}
	if n := out["gpu.warp_instrs"]; n > 0 {
		out["gpu.l1_hit_rate"] = out["gpu.l1_weighted"] / n
		out["gpu.l2_hit_rate"] = out["gpu.l2_weighted"] / n
		out["gpu.ns_per_warp_instr"] = out["gpu.segment_s"] / n * 1e9
		out["sim_minstr_per_s"] = n / wall / 1e6
	}
	return out
}

func split(recs []passRec) (untraced, traced []passRec) {
	for _, r := range recs {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

func field(recs []passRec, f func(passRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

const (
	// heapMetric is the size of live and not-yet-swept heap objects.
	heapMetric = "/memory/classes/heap/objects:bytes"
	// allocMetric is the cumulative size of heap allocations.
	allocMetric = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeapPeak polls the heap size every millisecond until the returned
// function is called; that function stops the poller, waits for it and
// returns the largest size seen.
func sampleHeapPeak() func() uint64 {
	var (
		wg   sync.WaitGroup
		peak uint64
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		if v := readMetric(heapMetric); v > peak {
			peak = v
		}
		return peak
	}
}
