package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"stemroot/internal/core"
	"stemroot/internal/experiments"
	"stemroot/internal/hwmodel"
	"stemroot/internal/kernelgen"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
	"stemroot/internal/workloads"
)

// dseRunner runs experiments.Table4 — the `experiments -run table4` job:
// full and sampled simulation of reduced Rodinia and HuggingFace workloads
// on five GPU variants, with no segment cache.
type dseRunner struct {
	cfg experiments.Config
	// ws are the workloads Table4 generates internally, rebuilt here for
	// the traced probes of the layers Table4 hides.
	ws []*trace.Workload
}

func setupDSE(seed uint64, scale string) (runner, error) {
	cfg := experiments.Quick()
	cfg.Seed = seed
	cfg.Reps = 1
	if scale == "tiny" {
		cfg.DSEMaxCalls = 4
	}
	ws := append(workloads.DSERodinia(cfg.Seed, cfg.DSEMaxCalls),
		workloads.DSEHuggingFace(cfg.Seed, cfg.DSEMaxCalls)...)
	return &dseRunner{cfg: cfg, ws: ws}, nil
}

func (d *dseRunner) pass(tr *tracer) *passOut {
	out := &passOut{ops: 1, values: make(map[string]float64)}
	cfg := d.cfg
	if tr != nil {
		cfg.Cache = &tracedCache{tr: tr}
	}
	id := tr.begin("experiments.table4")
	t0 := time.Now()
	res, err := experiments.Table4(cfg)
	out.calls = append(out.calls, time.Since(t0).Seconds())
	tr.end(id)
	if err != nil {
		out.fail("dse: Table4: %v", err)
		return out
	}

	dig := newDigester()
	stemName := (&sampling.STEMRoot{}).Name()
	var stem, n float64
	for _, v := range res.Variants {
		dig.s(v)
		for _, m := range res.Methods {
			e := res.ErrorPct[v][m]
			dig.s(m)
			dig.f(e)
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				out.fail("dse: %s/%s error %v is not a finite percentage", v, m, e)
			}
			if m == stemName {
				stem += e
				n++
			}
		}
	}
	for _, b := range res.Figure12 {
		dig.s(b.Variant + "/" + b.Workload + "/" + b.Method)
		dig.f(b.FullCycles, b.EstimateCycles)
		if !(b.FullCycles > 0) {
			out.fail("dse: %s/%s full cycles %v", b.Variant, b.Workload, b.FullCycles)
		}
	}
	if n == 0 {
		out.fail("dse: Table4 reported no STEM+ROOT column")
	} else {
		out.values["stem_err_pct"] = stem / n
	}
	out.digest = dig.sum()
	return out
}

// probe times, on Table4's own workloads, the layers Table4 calls
// internally: the profiling model, each method's Plan, and kernel-spec and
// instruction-stream generation.
func (d *dseRunner) probe(tr *tracer) {
	seed := d.cfg.Seed
	stemParams := core.DefaultParams()
	stemParams.Epsilon = d.cfg.Epsilon
	stemParams.Confidence = d.cfg.Confidence
	stemParams.Seed = seed
	methods := []sampling.Method{
		timedMethod{sampling.NewPKA(seed), tr, "sampling.pka"},
		timedMethod{sampling.NewSieve(seed), tr, "sampling.sieve"},
		timedMethod{sampling.NewPhoton(seed), tr, "sampling.photon"},
		timedMethod{&sampling.STEMRoot{Params: stemParams}, tr, "sampling.stem"},
	}
	for _, w := range d.ws {
		id := tr.begin("hwmodel.profile")
		prof := hwmodel.New(hwmodel.RTX2080, w.Seed).Profile(w)
		tr.end(id)
		for _, m := range methods {
			if _, err := m.Plan(w, prof); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: dse probe %s/%s: %v\n", w.Name, m.Name(), err)
			}
		}
		probeKernelgen(tr, w, kernelgen.DSELimits())
	}
}

// probeKernelgen times kernelgen.FromInvocation for every invocation of w
// and, separately, initializing and draining every warp's instruction
// stream, the work the simulator's inner loop consumes.
func probeKernelgen(tr *tracer, w *trace.Workload, lim kernelgen.Limits) {
	specs := make([]kernelgen.Spec, len(w.Invs))
	id := tr.begin("kernelgen.spec")
	for i := range w.Invs {
		specs[i] = kernelgen.FromInvocation(&w.Invs[i], lim)
	}
	tr.end(id)
	var st kernelgen.Stream
	var instrs int
	id = tr.begin("kernelgen.stream")
	for i := range specs {
		s := &specs[i]
		for wi := 0; wi < s.Blocks*s.WarpsPerBlock; wi++ {
			s.InitStream(&st, wi)
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				instrs++
			}
		}
	}
	tr.end(id)
	tr.add("kernelgen.warp_instrs", float64(instrs))
}
