package main

import (
	"bytes"
	"math"
	"time"

	"stemroot"
	"stemroot/internal/core"
	"stemroot/internal/servetrace"
	"stemroot/internal/trace"
)

// streamRunner is the `stemroot -stream` service mode: a serving trace,
// rendered to CSV bytes during set-up, is fed through the zero-alloc
// parser into the incremental planner, with a rolling snapshot every
// streamSnapshotEvery invocations and a forced final plan.
type streamRunner struct {
	seed        uint64
	csv         []byte
	invocations int
	// total is the exact summed time of the trace, for the gap check and
	// stream_gap_pct.
	total float64
}

const streamSnapshotEvery = 1 << 16

func setupStream(seed uint64, scale string) (runner, error) {
	n := 2_000_000
	if scale == "tiny" {
		n = 200_000
	}
	s := servetrace.New(servetrace.Config{Seed: seed, Invocations: n})
	var buf bytes.Buffer
	buf.Grow(n * 32)
	if err := s.WriteCSV(&buf); err != nil {
		return nil, err
	}
	var total float64
	if err := s.ScanBytes(func(_ []byte, t float64) bool {
		total += t
		return true
	}); err != nil {
		return nil, err
	}
	return &streamRunner{seed: seed, csv: buf.Bytes(), invocations: n, total: total}, nil
}

func (s *streamRunner) pass(tr *tracer) *passOut {
	out := &passOut{ops: 1, values: make(map[string]float64)}
	d := newDigester()
	t0 := time.Now()
	sp, err := stemroot.NewStreamPlanner(stemroot.Options{Seed: s.seed}, stemroot.StreamOptions{})
	if err != nil {
		out.fail("stream: NewStreamPlanner: %v", err)
		return out
	}

	var (
		next     = streamSnapshotEvery
		snapErr  error
		replans  int
		replanS  float64
		callback time.Duration
		addTime  time.Duration
	)
	snapshot := func() {
		c0 := time.Now()
		snap, err := sp.Snapshot()
		lat := time.Since(c0).Seconds()
		out.ops++
		if err != nil {
			snapErr = err
			return
		}
		if snap.Replans > replans {
			// A snapshot that re-planned is the workload's unit call.
			replans = snap.Replans
			out.calls = append(out.calls, lat)
			replanS += lat
		}
		s.checkPredicted(out, "snapshot", snap.PredictedError)
		d.i(snap.Invocations, snap.Kernels, snap.Clusters, snap.TotalSamples, snap.Replans)
		d.f(snap.TotalTimeUS, snap.ExtrapolatedUS, snap.DistinctTimeUS, snap.PredictedError)
	}

	id := tr.begin("trace.fastcsv")
	var scanErr error
	if tr == nil {
		scanErr = trace.NewFastCSVReader(bytes.NewReader(s.csv)).ScanBytes(func(name []byte, t float64) bool {
			sp.AddBytes(name, t)
			if sp.Count() >= next {
				snapshot()
				next += streamSnapshotEvery
			}
			return snapErr == nil
		})
	} else {
		// Traced: time each callback and each AddBytes inside it, so the
		// parser's own time is ScanBytes minus its callbacks.
		scanErr = trace.NewFastCSVReader(bytes.NewReader(s.csv)).ScanBytes(func(name []byte, t float64) bool {
			c0 := time.Now()
			sp.AddBytes(name, t)
			c1 := time.Now()
			addTime += c1.Sub(c0)
			if sp.Count() >= next {
				snapshot()
				next += streamSnapshotEvery
			}
			callback += time.Since(c0)
			return snapErr == nil
		})
	}
	tr.end(id)
	if scanErr != nil || snapErr != nil {
		out.fail("stream: ScanBytes: %v / Snapshot: %v", scanErr, snapErr)
		return out
	}

	c0 := time.Now()
	plan, err := sp.Plan()
	replanS += time.Since(c0).Seconds()
	out.ops++
	if err != nil {
		out.fail("stream: Plan: %v", err)
		return out
	}
	snap, err := sp.Snapshot()
	wall := time.Since(t0).Seconds()
	if err != nil {
		out.fail("stream: final Snapshot: %v", err)
		return out
	}
	s.checkPredicted(out, "final plan", plan.PredictedError)
	if snap.Invocations != s.invocations {
		out.fail("stream: ingested %d invocations, rendered %d", snap.Invocations, s.invocations)
	}
	if math.Abs(snap.TotalTimeUS-s.total) > 1e-9*s.total {
		out.fail("stream: total time %v, exact %v", snap.TotalTimeUS, s.total)
	}
	d.f(plan.PredictedError)
	for _, c := range plan.Clusters {
		d.s(c.Kernel)
		d.i(c.Samples...)
		d.f(c.Weight, c.Mean, c.StdDev)
	}
	d.i(snap.Invocations, snap.Clusters, snap.TotalSamples, snap.Replans)
	d.f(snap.TotalTimeUS, snap.ExtrapolatedUS)
	out.digest = d.sum()

	out.values["ingest_minv_per_s"] = float64(snap.Invocations) / wall / 1e6
	out.values["stream_gap_pct"] = 100 * math.Abs(snap.ExtrapolatedUS-s.total) / s.total
	out.values["core.clusters"] = float64(snap.Clusters)
	out.values["core.samples"] = float64(snap.TotalSamples)
	out.values["core.replans"] = float64(snap.Replans)
	tr.add("core.replan_s", replanS)
	tr.add("core.add_s", addTime.Seconds())
	tr.add("trace.fastcsv_s", -callback.Seconds())
	return out
}

// checkPredicted fails a plan whose predicted error is not finite or above
// the bound.
func (s *streamRunner) checkPredicted(out *passOut, what string, pe float64) {
	eps := core.DefaultParams().Epsilon
	if math.IsNaN(pe) || math.IsInf(pe, 0) || pe > eps {
		out.fail("stream: %s predicted error %v exceeds the bound %v", what, pe, eps)
	}
}

func (s *streamRunner) probe(*tracer) {}
