package main

import (
	"math"
	"time"

	"stemroot/internal/gpu"
	"stemroot/internal/kernelgen"
	"stemroot/internal/pipeline"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// kernelRunner is single-kernel latency: a fixed set of large HuggingFace
// kernels, each simulated alone in its own pipeline.SampledSimOpt call —
// one segment, so segment parallelism has nothing to spread.
type kernelRunner struct {
	kernels []kernelRef
	lim     kernelgen.Limits
}

// kernelRef is one invocation of a workload.
type kernelRef struct {
	w  *trace.Workload
	ix int
}

func setupKernel(seed uint64, scale string) (runner, error) {
	n := 64
	if scale == "tiny" {
		n = 2
	}
	lim := kernelgen.DefaultLimits()
	full := lim.MaxBlocks * lim.MaxWarpsPerBlock * lim.MaxInstrsPerWarp
	// Candidates are the invocations whose spec reaches every limit; take
	// them round-robin over the workloads so each model contributes.
	var perWorkload [][]kernelRef
	for _, w := range workloads.HuggingFace(seed, 0.01) {
		var refs []kernelRef
		for i := range w.Invs {
			s := kernelgen.FromInvocation(&w.Invs[i], lim)
			if s.Blocks*s.WarpsPerBlock*s.InstrsPerWarp == full {
				refs = append(refs, kernelRef{w, i})
			}
		}
		perWorkload = append(perWorkload, refs)
	}
	r := &kernelRunner{lim: lim}
	for round := 0; len(r.kernels) < n; round++ {
		added := false
		for _, refs := range perWorkload {
			if round < len(refs) && len(r.kernels) < n {
				r.kernels = append(r.kernels, refs[round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return r, nil
}

func (k *kernelRunner) pass(tr *tracer) *passOut {
	out := &passOut{values: make(map[string]float64)}
	var opts pipeline.Options
	if tr != nil {
		opts.Cache = &tracedCache{tr: tr}
	}
	d := newDigester()
	cfg := gpu.Baseline()
	for _, ref := range k.kernels {
		out.ops++
		id := tr.begin("gpu.kernel")
		t0 := time.Now()
		cycles, err := pipeline.SampledSimOpt(ref.w, cfg, k.lim, []int{ref.ix}, opts)
		lat := time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			out.fail("kernel: %s[%d]: SampledSimOpt: %v", ref.w.Name, ref.ix, err)
			continue
		}
		c := cycles[ref.ix]
		if !(c > 0) || math.IsInf(c, 0) {
			out.fail("kernel: %s[%d]: cycles %v", ref.w.Name, ref.ix, c)
		}
		out.calls = append(out.calls, lat)
		d.s(ref.w.Name)
		d.i(ref.ix)
		d.f(c)
	}
	out.digest = d.sum()
	return out
}

// probe times spec and instruction-stream generation for the kernel set.
func (k *kernelRunner) probe(tr *tracer) {
	w := &trace.Workload{}
	for _, ref := range k.kernels {
		w.Invs = append(w.Invs, ref.w.Invs[ref.ix])
	}
	probeKernelgen(tr, w, k.lim)
}
