package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"stemroot/internal/gpu"
	"stemroot/internal/sampling"
	"stemroot/internal/trace"
)

// span is one timed call into a layer. Times are microseconds since the
// start of the run; Parent is the enclosing span's ID, or -1.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Pass   int     `json:"pass"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer records the spans and counters of one traced pass. Spans live in
// memory and are written out when the run ends. A span named "x.y" adds its
// duration to the per-layer metric "x.y_s".
//
// Every method is a no-op on a nil *tracer, so untraced passes run the same
// code with tracing off.
type tracer struct {
	origin time.Time
	pass   int

	mu    sync.Mutex
	spans []span
	// cur is the innermost open span of the closed loop. Spans opened on
	// library goroutines (segments) take it as their parent.
	cur  int
	sums map[string]float64
	// segs maps each segment key the simulator returned to a hash of its
	// results, for the simulated-statistics digest.
	segs map[gpu.SegmentKey][32]byte
}

func newTracer(origin time.Time, pass int) *tracer {
	return &tracer{
		origin: origin, pass: pass, cur: -1,
		sums: make(map[string]float64),
		segs: make(map[gpu.SegmentKey][32]byte),
	}
}

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.origin).Nanoseconds()) / 1e3
}

// begin opens a span of the closed loop, nested in the current one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Pass: t.pass, Name: name, Start: now})
	t.cur = id
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	t.cur = s.Parent
	t.sums[s.Name+"_s"] += (s.End - s.Start) / 1e6
}

// leaf records a finished span from any goroutine, as a child of the
// closed loop's current span.
func (t *tracer) leaf(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: t.cur, Pass: t.pass, Name: name, Start: t.since(start), End: t.since(end)}
	t.spans = append(t.spans, s)
	t.sums[name+"_s"] += end.Sub(start).Seconds()
}

// add adds v to counter name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// simDigest hashes the results of every segment the simulator returned,
// keyed and sorted by segment key so worker scheduling cannot change it.
func (t *tracer) simDigest() [32]byte {
	keys := make([]gpu.SegmentKey, 0, len(t.segs))
	for k := range t.segs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
	h := sha256.New()
	for _, k := range keys {
		v := t.segs[k]
		h.Write(k[:])
		h.Write(v[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// tracedCache is a gpu.SegmentCache that times each segment the simulator
// computes and reads the returned results for the gpu.* counters and the
// simulated-statistics digest. With inner == nil it computes every segment
// (no caching); otherwise it wraps inner and also times the lookup.
type tracedCache struct {
	inner gpu.SegmentCache
	tr    *tracer
}

func (c *tracedCache) GetOrCompute(key gpu.SegmentKey, compute func() ([]gpu.KernelResult, error)) ([]gpu.KernelResult, error) {
	var computeDur time.Duration
	timed := func() ([]gpu.KernelResult, error) {
		t0 := time.Now()
		res, err := compute()
		t1 := time.Now()
		computeDur = t1.Sub(t0)
		c.tr.leaf("gpu.segment", t0, t1)
		if err == nil {
			c.countComputed(res)
		}
		return res, err
	}
	if c.inner == nil {
		res, err := timed()
		if err == nil {
			c.record(key, res)
		}
		return res, err
	}
	t0 := time.Now()
	res, err := c.inner.GetOrCompute(key, timed)
	c.tr.add("simcache.lookup_s", (time.Since(t0) - computeDur).Seconds())
	if err == nil {
		c.record(key, res)
	}
	return res, err
}

// countComputed adds a simulated segment's results to the gpu.* counters.
func (c *tracedCache) countComputed(res []gpu.KernelResult) {
	var instrs, cycles, l1, l2 float64
	for _, r := range res {
		n := float64(r.Instructions)
		instrs += n
		cycles += r.Cycles
		l1 += r.L1HitRate * n
		l2 += r.L2HitRate * n
	}
	t := c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sums["gpu.segments"]++
	t.sums["gpu.kernels"] += float64(len(res))
	t.sums["gpu.warp_instrs"] += instrs
	t.sums["gpu.sim_cycles"] += cycles
	t.sums["gpu.l1_weighted"] += l1
	t.sums["gpu.l2_weighted"] += l2
}

// record hashes one segment's returned results into the digest map.
func (c *tracedCache) record(key gpu.SegmentKey, res []gpu.KernelResult) {
	d := newDigester()
	for _, r := range res {
		d.f(r.Cycles, r.L1HitRate, r.L2HitRate)
		d.i(int(r.Instructions))
	}
	sum := d.sum()
	c.tr.mu.Lock()
	c.tr.segs[key] = sum
	c.tr.mu.Unlock()
}

// timedMethod is a sampling.Method that records a span around Plan.
type timedMethod struct {
	sampling.Method
	tr   *tracer
	span string
}

func (m timedMethod) Plan(w *trace.Workload, prof *trace.Profile) (*sampling.Plan, error) {
	id := m.tr.begin(m.span)
	p, err := m.Method.Plan(w, prof)
	m.tr.end(id)
	return p, err
}

// writeSpans writes every traced pass's spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// digester hashes a sequence of values bit for bit.
type digester struct {
	h hash.Hash
	b [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(xs ...float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.b[:], math.Float64bits(x))
		d.h.Write(d.b[:])
	}
}

func (d *digester) i(xs ...int) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.b[:], uint64(x))
		d.h.Write(d.b[:])
	}
}

func (d *digester) s(str string) {
	d.i(len(str))
	d.h.Write([]byte(str))
}

func (d *digester) sum() [32]byte {
	var out [32]byte
	d.h.Sum(out[:0])
	return out
}
