package gpu

import (
	"fmt"
	"sync"

	"stemroot/internal/kernelgen"
	"stemroot/internal/parallel"
)

// KernelResult reports one simulated kernel execution.
type KernelResult struct {
	Cycles       float64
	Instructions int64
	L1HitRate    float64
	L2HitRate    float64
}

// Simulator executes kernels on the configured GPU. The shared L2 persists
// across kernels within a Simulator (real GPUs retain L2 state across kernel
// boundaries), enabling the §6.2 inter-kernel reuse ablation via
// Config.FlushL2BetweenKernels.
//
// Besides the L2, a Simulator owns a scratch arena — per-SM L1 caches,
// issue clocks, MSHR files, pending-warp lists, the warp-scheduling heap,
// and a slot pool of warp states with inline instruction streams — that is
// allocated once and reset between kernels, so steady-state RunKernel calls
// perform no heap allocation (pinned by TestRunKernelSteadyStateAllocs).
//
// A Simulator is NOT safe for concurrent use: RunKernel mutates the shared
// L2 and the scratch arena. Parallel callers create one Simulator per
// worker (see RunSegmented and internal/pipeline), which is cheap — the
// dominant cost is kernel execution, not construction.
type Simulator struct {
	cfg Config
	l2  *Cache

	// Scratch arena, reused across RunKernel calls. Slices indexed by SM
	// are sized once in New (the SM count is fixed per configuration);
	// the heap, warp slots, and pending lists grow to the high-water mark
	// of the kernels seen and are then reused.
	l1s         []*Cache
	pending     [][]int // per-SM launch-order warp ids
	nextPending []int
	activeBySM  []int
	issueClock  []float64
	mshrs       []mshrState
	heap        warpHeap
	warps       []warpState // slot arena; heap entries index into it
	freeSlots   []int32
}

// New validates the configuration and returns a simulator with cold caches.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:         cfg,
		l2:          NewCache(cfg.L2),
		l1s:         make([]*Cache, cfg.SMs),
		pending:     make([][]int, cfg.SMs),
		nextPending: make([]int, cfg.SMs),
		activeBySM:  make([]int, cfg.SMs),
		issueClock:  make([]float64, cfg.SMs),
		mshrs:       make([]mshrState, cfg.SMs),
	}
	for i := range s.l1s {
		s.l1s[i] = NewCache(cfg.L1)
	}
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Reset returns the simulator to its just-constructed state: cold L2, cold
// L1s, empty scratch arena. A Reset simulator is bit-identical in behaviour
// to a fresh New(cfg) one — Cache.Reset carries exactly that contract
// (pinned by TestCacheResetMatchesFresh), and every other piece of scratch
// is re-initialized by RunKernel anyway — while keeping all backing arrays,
// so steady-state segment simulation over a reused simulator allocates
// nothing. This is what lets RunSegmentedCached keep one simulator per
// worker instead of constructing L2+L1 state per segment
// (TestSimulatorResetMatchesNew and TestRunSegmentedCachedSteadyStateAllocs
// pin the contract).
func (s *Simulator) Reset() {
	s.l2.Reset()
	for sm := range s.l1s {
		s.l1s[sm].Reset()
		s.pending[sm] = s.pending[sm][:0]
		s.nextPending[sm] = 0
		s.activeBySM[sm] = 0
		s.issueClock[sm] = 0
		s.mshrs[sm].release = s.mshrs[sm].release[:0]
	}
	s.heap.reset()
	s.warps = s.warps[:0]
	s.freeSlots = s.freeSlots[:0]
}

// mshrState tracks one SM's outstanding-miss slots (miss status holding
// registers). A miss occupies a slot until its fill returns; when every
// slot is busy the next miss stalls until the earliest fill.
//
// release is a binary min-heap over the outstanding fill-completion times,
// replacing the original per-miss O(MSHRsPerSM) linear minimum scan with an
// O(log MSHRsPerSM) root replacement. The change is bit-identical by a
// multiset argument: acquire's output depends only on the MINIMUM of the
// outstanding release times (issue = max(t, min)), and both the old scan
// (overwrite the first minimum-valued slot) and the heap (replace the root)
// substitute one minimum-valued element with issue+latency — the multiset
// evolves identically, so every future minimum, and therefore every issue
// time, is unchanged. TestMSHRAcquireMatchesLinearScan pins this against
// the preserved scan implementation; the engine-level saturation cases live
// in the RunKernel loop oracle.
type mshrState struct {
	release []float64
}

// acquire reserves a slot for a miss issued at time t with the given fill
// latency, returning the actual issue time (>= t when all slots are busy).
func (m *mshrState) acquire(t, latency float64, cap int) float64 {
	if cap <= 0 {
		return t
	}
	h := m.release
	n := len(h)
	if n < cap {
		// Free slot: the fill outstands until t+latency; sift it up.
		h = append(h, t+latency)
		j := n
		for j > 0 {
			i := (j - 1) / 2
			if !(h[j] < h[i]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		m.release = h
		return t
	}
	issue := t
	if r := h[0]; r > t {
		issue = r
	}
	// The earliest outstanding fill's slot is recycled: replace the root
	// with the new completion time and sift it down.
	v := issue + latency
	h[0] = v
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2] < h[j] {
			j = j2
		}
		if !(h[j] < v) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = v
	return issue
}

// warpState is one resident warp's execution state. The instruction stream
// is stored inline (kernelgen.Stream is a value type) so activating a warp
// reinitializes a pooled slot instead of allocating.
type warpState struct {
	sm     int
	stream kernelgen.Stream
}

// activate fills free warp slots on sm with pending warps, pushing them
// onto the scheduling heap ready at cycle `at`. Slot indices are recycled
// through the free list; recycling order cannot affect results because the
// heap orders strictly by readiness (with container/heap-equivalent tie
// handling) and slot contents are fully reinitialized by InitStream.
func (s *Simulator) activate(spec *kernelgen.Spec, sm int, at float64) {
	for s.activeBySM[sm] < s.cfg.WarpSlots && s.nextPending[sm] < len(s.pending[sm]) {
		id := s.pending[sm][s.nextPending[sm]]
		s.nextPending[sm]++
		s.activeBySM[sm]++
		var slot int32
		if n := len(s.freeSlots); n > 0 {
			slot = s.freeSlots[n-1]
			s.freeSlots = s.freeSlots[:n-1]
		} else {
			s.warps = append(s.warps, warpState{})
			slot = int32(len(s.warps) - 1)
		}
		s.warps[slot].sm = sm
		spec.InitStream(&s.warps[slot].stream, id)
		s.heap.push(at, slot)
	}
}

// RunKernel simulates one kernel to completion and returns its cycle count
// and cache behaviour. The engine is event-driven but cycle-accurate in its
// accounting: per-SM issue bandwidth, dependency stalls, L1/L2/DRAM
// latencies, and global DRAM bandwidth queueing all advance the clock.
//
// The scheduler is event-coalesced with a held-entry fast path: after an
// instruction executes, the warp's next heap entry is kept in a register
// and compared against the heap root. When it is strictly earlier than the
// root AND pushPopIsNoop proves the baseline push+pop pair would be the
// identity on the heap array, the warp is re-issued directly with zero heap
// traffic. Every other handoff runs warpHeap.pushPop, which computes the
// exact push-then-pop result in one fused pass (or, outside the fast-path
// key domain, the literal push/pop pair), so heap layout — and with it
// container/heap tie order and per-warp RNG consumption — evolves
// bit-identically to the pop-always loop (pinned by
// TestRunKernelMatchesReferenceLoop and the golden tests). Consecutive
// same-warp iterations also keep the SM's issue clock, L1, and MSHR file in
// locals, re-loading them only when scheduling hands off to another warp.
func (s *Simulator) RunKernel(spec *kernelgen.Spec) KernelResult {
	cfg := s.cfg
	if cfg.FlushL2BetweenKernels {
		s.l2.Flush()
	}

	// Reset the scratch arena. Reset L1s are bit-identical to fresh ones
	// (see Cache.Reset); everything else is truncated or zeroed.
	for sm := 0; sm < cfg.SMs; sm++ {
		s.l1s[sm].Reset()
		s.pending[sm] = s.pending[sm][:0]
		s.nextPending[sm] = 0
		s.activeBySM[sm] = 0
		s.issueClock[sm] = 0
		s.mshrs[sm].release = s.mshrs[sm].release[:0]
	}
	s.l2.ResetStats()
	s.heap.reset()
	s.warps = s.warps[:0]
	s.freeSlots = s.freeSlots[:0]

	// Assign blocks to SMs round-robin; expand to a per-SM pending warp
	// list in launch order.
	for b := 0; b < spec.Blocks; b++ {
		sm := b % cfg.SMs
		for w := 0; w < spec.WarpsPerBlock; w++ {
			s.pending[sm] = append(s.pending[sm], b*spec.WarpsPerBlock+w)
		}
	}

	issueStep := 1.0 / float64(cfg.IssueWidth)
	for sm := 0; sm < cfg.SMs; sm++ {
		s.activate(spec, sm, 0)
	}

	// Per-kernel latency table indexed by instruction kind, folding the
	// per-kind switch (and the branch-divergence serialization term) into
	// one array load. Entries hold the warp's dependency stall
	// DependencyFraction*latency; the products are computed once from
	// exactly the operands the switch used, so the per-instruction ready
	// times are bit-identical. Load/store entries stay zero — the memory
	// path computes its latency dynamically below.
	depFrac := cfg.DependencyFraction
	aluStall := depFrac * float64(cfg.ALULatency)
	var stall [kernelgen.KindCount]float64
	stall[kernelgen.OpALU] = aluStall
	stall[kernelgen.OpFP32] = aluStall
	stall[kernelgen.OpFP16] = depFrac * float64(cfg.FP16Latency)
	stall[kernelgen.OpSFU] = depFrac * float64(cfg.SFULatency)
	// Divergent branches serialize both paths.
	stall[kernelgen.OpBranch] = depFrac * (float64(cfg.ALULatency) * (1 + 2*spec.BranchDivergence))
	stall[kernelgen.OpSync] = aluStall

	// Memory-path constants, hoisted: identical conversions and products to
	// the per-instruction ones they replace.
	l1HitStall := depFrac * float64(cfg.L1Latency)
	l2Fill := float64(cfg.L2Latency)
	dramLat := float64(cfg.DRAMLatency)
	dramService := float64(s.l2.LineBytes()) / cfg.DRAMBytesPerCycle
	mshrCap := cfg.MSHRsPerSM
	l2 := s.l2

	// The heap fast paths (held-entry skip, replace-root) require every
	// event time to be a non-negative, non-NaN float: heapPushPopIsNoop's
	// proof assumes a total order, and warpHeap.pushPop compares raw
	// IEEE bit patterns, whose unsigned order matches float order exactly
	// on that domain. Event times are sums and maxima of the constants
	// below, so checking them once per kernel establishes the invariant by
	// induction; a pathological config or spec (negative latency, NaN
	// divergence) routes every handoff through the exact baseline push+pop
	// pair instead, which is correct for any float ordering.
	fastOK := l1HitStall >= 0 && l2Fill >= 0 && dramLat >= 0 && dramService >= 0 && depFrac >= 0
	for _, v := range stall {
		if !(v >= 0) {
			fastOK = false
		}
	}

	var (
		finish   float64
		instrs   int64
		dramFree float64
		l1Hits   uint64
		l1Misses uint64
	)

	for s.heap.n > 0 {
		e := s.heap.pop()
		running := true
		for running {
			// Same-warp scope: everything hoisted here stays valid while
			// the fast path keeps re-issuing this warp, because the heap,
			// the SM bindings, and the warp slot are untouched until the
			// warp retires or scheduling hands off.
			w := &s.warps[e.slot]
			sm := w.sm
			ic := s.issueClock[sm]
			l1 := s.l1s[sm]
			mshr := &s.mshrs[sm]
			empty := s.heap.n == 0
			rootReady := s.heap.keys[0] // +Inf sentinel when empty
			// The no-op proof is a property of the heap array alone; it is
			// computed lazily (first time the held entry beats the root)
			// and memoized until the heap next mutates — which also exits
			// this loop.
			skipChecked, skipOK := false, false
			for {
				ins, ok := w.stream.Next()
				if !ok {
					s.issueClock[sm] = ic
					s.activeBySM[sm]--
					if e.ready > finish {
						finish = e.ready
					}
					// Release the slot before activating: the next warp
					// reuses it. Skip activation entirely once the SM's
					// pending list is drained — the call would scan and do
					// nothing per remaining retirement.
					s.freeSlots = append(s.freeSlots, e.slot)
					if s.nextPending[sm] < len(s.pending[sm]) {
						s.activate(spec, sm, e.ready)
					}
					running = false
					break
				}
				instrs++

				t := e.ready
				if ic > t {
					t = ic
				}
				ic = t + issueStep

				var ready float64
				if k := ins.Kind; k != kernelgen.OpLoad && k != kernelgen.OpStore {
					ready = t + stall[k]
				} else if l1.Access(ins.Addr) {
					l1Hits++
					ready = t + l1HitStall
				} else {
					l1Misses++
					var fill float64
					if l2.Access(ins.Addr) {
						fill = l2Fill
					} else {
						// DRAM: latency plus bandwidth queueing.
						queue := dramFree - t
						if queue < 0 {
							queue = 0
						}
						if dramFree < t {
							dramFree = t
						}
						dramFree += dramService
						fill = dramLat + queue
					}
					// An L1 miss needs an MSHR; a full MSHR file delays the
					// miss until the earliest outstanding fill returns.
					issue := mshr.acquire(t, fill, mshrCap)
					lat := (issue - t) + fill
					ready = t + depFrac*lat
				}

				if empty {
					e.ready = ready
					continue
				}
				if ready < rootReady && fastOK {
					if !skipChecked {
						skipChecked, skipOK = true, s.heap.pushPopIsNoop()
					}
					if skipOK {
						e.ready = ready
						continue
					}
				}
				// Hand off through the heap via the fused push+pop, which
				// computes the pair's exact result in one pass. (When
				// ready < rootReady it pops the same warp back, but the
				// sifts may rotate tied entries, so the work must run.)
				// Outside the fast-path key domain run the literal pair.
				s.issueClock[sm] = ic
				if fastOK {
					e = s.heap.pushPop(heapEntry{ready: ready, slot: e.slot})
				} else {
					s.heap.push(ready, e.slot)
					e = s.heap.pop()
				}
				break
			}
		}
	}

	res := KernelResult{
		Cycles:       finish,
		Instructions: instrs,
		L2HitRate:    s.l2.HitRate(),
	}
	if tot := l1Hits + l1Misses; tot > 0 {
		res.L1HitRate = float64(l1Hits) / float64(tot)
	}
	return res
}

// RunSpecs simulates a sequence of kernels in order, preserving L2 state
// between them, and returns the per-kernel results and total cycle count.
func (s *Simulator) RunSpecs(specs []*kernelgen.Spec) ([]KernelResult, float64) {
	results := make([]KernelResult, len(specs))
	var total float64
	for i, sp := range specs {
		results[i] = s.RunKernel(sp)
		total += results[i].Cycles
	}
	return results, total
}

// DefaultSegmentLen is the replay-segment length used by RunSegmented when
// none is specified. Within a segment L2 state persists across kernels as
// in RunSpecs; each segment starts cold. 16 kernels is enough for the
// (small, §6.2) inter-kernel weight reuse to behave as in an unsegmented
// replay for all but the first kernels of a segment, while still exposing
// one unit of parallelism per 16 invocations.
const DefaultSegmentLen = 16

// RunSegmented is the parallel variant of RunSpecs used by full-simulation
// baselines: the spec sequence is cut into fixed-length segments, segments
// are executed by a work-stealing worker pool in which each worker owns one
// warm Simulator (so workers never share mutable state), and results are
// published in segment order. The segmentation depends only on len(specs)
// and segLen — never on the worker count or scheduling — so the output is
// bit-identical for every workers value, including the serial workers == 1
// path. segLen <= 0 selects DefaultSegmentLen; workers <= 0 selects one
// worker per CPU (and requests beyond the CPU count are clamped — see
// parallel.Workers).
//
// The semantic difference from RunSpecs is that L2 state does not persist
// across segment boundaries. This is the standard trace-level-parallelism
// trade (cold caches at chunk starts); the paper's §6.2 ablation bounds the
// inter-kernel reuse it discards.
func RunSegmented(cfg Config, specs []*kernelgen.Spec, segLen, workers int) ([]KernelResult, float64, error) {
	return RunSegmentedFunc(cfg, len(specs), func(i int) kernelgen.Spec {
		return *specs[i]
	}, segLen, workers)
}

// RunSegmentedFunc is RunSegmented over a spec generator instead of a
// materialized spec slice: workers call specAt(i) for each invocation index
// inside their own segment, so the full []*kernelgen.Spec is never built up
// front. For large FullSim workloads this keeps the spec working set to one
// spec per worker. specAt must be safe for concurrent calls with distinct
// indices and must return the same value for the same index (a pure
// function of i, like kernelgen.FromInvocation); results are then
// bit-identical for every workers value.
func RunSegmentedFunc(cfg Config, n int, specAt func(i int) kernelgen.Spec, segLen, workers int) ([]KernelResult, float64, error) {
	return RunSegmentedCached(cfg, n, specAt, segLen, workers, nil)
}

// segCommitter is the deterministic result-commit layer of RunSegmentedCached:
// workers complete segments in whatever order the work-stealing scheduler
// produces, hand each finished segment to commit, and the committer publishes
// them in ascending segment order — copying cache-owned result slices into
// the caller's results and folding the running cycle total in ascending
// invocation order, exactly the order the serial path uses. Float addition
// is not associative, so folding in completion order would make the total
// depend on scheduling; publication order makes it a pure function of the
// input. Out-of-order arrivals are buffered in pending until their turn;
// in-order arrivals (always, on the serial path) publish immediately and
// never touch the map, keeping steady-state segments allocation-free
// (TestRunSegmentedCachedSteadyStateAllocs pins this).
type segCommitter struct {
	mu      sync.Mutex
	next    int
	total   float64
	results []KernelResult
	segLen  int
	// pending buffers segments that arrived ahead of order, keyed by segment
	// index. A nil value is a valid entry (uncached path: the worker already
	// wrote the segment's window of results), so presence is the marker.
	pending map[int][]KernelResult
}

// commit hands segment sg to the committer. seg == nil means the segment's
// results already sit in their [sg*segLen, ...) window of c.results (the
// uncached path writes windows directly — they are disjoint per segment, so
// no two workers ever touch the same elements); a non-nil seg is a shared
// cache-owned slice copied into the window at publication time, never
// mutated in place.
func (c *segCommitter) commit(sg int, seg []KernelResult) {
	c.mu.Lock()
	if sg != c.next {
		if c.pending == nil {
			c.pending = make(map[int][]KernelResult)
		}
		c.pending[sg] = seg
		c.mu.Unlock()
		return
	}
	for {
		lo := sg * c.segLen
		hi := lo + c.segLen
		if hi > len(c.results) {
			hi = len(c.results)
		}
		if seg != nil {
			copy(c.results[lo:hi], seg)
		}
		for i := lo; i < hi; i++ {
			c.total += c.results[i].Cycles
		}
		c.next++
		var ok bool
		if seg, ok = c.pending[c.next]; !ok {
			break
		}
		delete(c.pending, c.next)
		sg = c.next
	}
	c.mu.Unlock()
}

// segScratch is one worker's reusable buffers for the cached execution
// path: the materialized specs of the segment in flight and the canonical
// key encoding (KeyForSegmentAppend). Both reach steady-state capacity
// after the first segment, so warm-replay segments allocate nothing here.
type segScratch struct {
	specs  []kernelgen.Spec
	keyBuf []byte
}

// segmentKey materializes segment sg's specs into the scratch and returns
// them with the segment's content address: keys[sg] when the prefetch pass
// already derived it (keys non-nil), otherwise derived here. The returned
// spec slice aliases the scratch and is valid until the next call on the
// same scratch.
func (sc *segScratch) segmentKey(cfg Config, n, sg, segLen int, specAt func(i int) kernelgen.Spec, keys []SegmentKey) (SegmentKey, []kernelgen.Spec) {
	lo := sg * segLen
	hi := lo + segLen
	if hi > n {
		hi = n
	}
	specs := sc.specs[:0]
	for i := lo; i < hi; i++ {
		specs = append(specs, specAt(i))
	}
	sc.specs = specs
	if keys != nil {
		return keys[sg], specs
	}
	var key SegmentKey
	key, sc.keyBuf = KeyForSegmentAppend(sc.keyBuf, cfg, specs)
	return key, specs
}

// RunSegmentedCached is RunSegmentedFunc with a content-addressed segment
// cache consulted before each segment is simulated. Each segment's result is
// a pure function of (EngineFingerprint, cfg, the segment's spec sequence) —
// the basis of the SegmentKey — so a cache hit returns results bit-identical
// to a fresh simulation, for every workers value. cache == nil disables
// lookup and is exactly RunSegmentedFunc.
//
// Execution: segments are scheduled over parallel.ForEachStealing, so each
// worker sweeps a contiguous ascending run of segments on its own warm
// Simulator (constructed once, cold-Reset between segments — bit-identical
// to a fresh New) and idle workers steal half the richest victim's remaining
// segments, which rebalances adversarially skewed segment costs instead of
// serializing them behind one worker. Finished segments flow through a
// segCommitter that publishes them in segment order, so the returned results
// and total are bit-identical for every workers value, including the serial
// workers == 1 path (pinned by TestRunSegmentedStealingDeterministicSkewed
// and the pipeline determinism tests).
//
// Cached result slices are shared between callers; results are copied into
// the returned slice, never mutated in place.
func RunSegmentedCached(cfg Config, n int, specAt func(i int) kernelgen.Spec, segLen, workers int, cache SegmentCache) ([]KernelResult, float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if segLen <= 0 {
		segLen = DefaultSegmentLen
	}
	nseg := (n + segLen - 1) / segLen
	nworkers := parallel.Workers(workers)

	// Worker-owned simulator lifecycle: each pool worker lazily constructs
	// one Simulator on its first segment and cold-Resets it before every
	// subsequent one. Reset is bit-identical to New (see Simulator.Reset),
	// and segments were already simulated on per-segment fresh simulators,
	// so results are unchanged for every worker count while steady-state
	// segment simulation allocates nothing. New cannot fail here — its only
	// error is cfg.Validate, which passed above.
	sims := make([]*Simulator, nworkers)
	simFor := func(worker int) *Simulator {
		sim := sims[worker]
		if sim == nil {
			sim, _ = New(cfg)
			sims[worker] = sim
		} else {
			sim.Reset()
		}
		return sim
	}

	results := make([]KernelResult, n)
	committer := &segCommitter{results: results, segLen: segLen}
	if cache == nil {
		// Uncached: workers write each segment's results directly into the
		// disjoint [lo, hi) window of the shared results slice — no
		// per-segment slices, no publication copy (commit gets a nil seg and
		// only folds the total in order). One spec scratch per WORKER (not
		// per segment: a function-local scratch would escape into RunKernel
		// and heap-allocate every call): RunKernel reads the spec only
		// during the call (streams are reinitialized per kernel), so
		// reusing the slot across a worker's segments is safe.
		scratch := make([]kernelgen.Spec, nworkers)
		parallel.ForEachStealing(nseg, nworkers, func(worker, sg int) {
			sim := simFor(worker)
			lo := sg * segLen
			hi := lo + segLen
			if hi > n {
				hi = n
			}
			spec := &scratch[worker]
			for i := lo; i < hi; i++ {
				*spec = specAt(i)
				results[i] = sim.RunKernel(spec)
			}
			committer.commit(sg, nil)
		})
	} else {
		// Cached: materialize each segment's specs (bounded by segLen, so
		// the working set stays one segment per worker), derive the content
		// address, and only simulate on miss — on the worker's own reused
		// simulator (GetOrCompute runs compute on the calling goroutine, so
		// the simulator is never shared). Hits and computed results alike
		// are shared cache-owned slices: the committer copies them into
		// results at publication, in segment order. Spec and key-encoding
		// scratch is per WORKER and reused across all segments the worker
		// executes: on a warm replay the per-segment work is only key
		// derivation plus a copy, so per-segment allocations — not
		// simulation — would dominate (the PR 6 warm-replay drift).
		scratch := make([]segScratch, nworkers)

		// Batched key prefetch: when the cache has a batched backing tier
		// (BatchPrefetcher, e.g. simcache with a cachenet remote), derive
		// every segment key up front — the pipeline knows the whole spec
		// sequence — and announce them in one call, so the remote tier is
		// consulted in one round trip for the entire workload instead of
		// once per segment. The precomputed keys are then reused by the
		// workers below; key derivation is a pure function of the input,
		// so results are unchanged.
		var keys []SegmentKey
		if bp, ok := cache.(BatchPrefetcher); ok && bp.WantPrefetch() {
			keys = make([]SegmentKey, nseg)
			sc := &scratch[0]
			for sg := 0; sg < nseg; sg++ {
				keys[sg], _ = sc.segmentKey(cfg, n, sg, segLen, specAt, nil)
			}
			bp.Prefetch(keys)
		}

		errs := make([]error, nseg)
		parallel.ForEachStealing(nseg, nworkers, func(worker, sg int) {
			sc := &scratch[worker]
			key, specs := sc.segmentKey(cfg, n, sg, segLen, specAt, keys)
			seg, err := cache.GetOrCompute(key, func() ([]KernelResult, error) {
				sim := simFor(worker)
				out := make([]KernelResult, len(specs))
				for i := range specs {
					out[i] = sim.RunKernel(&specs[i])
				}
				return out, nil
			})
			errs[sg] = err
			committer.commit(sg, seg)
		})
		// Report the error of the lowest-indexed failing segment, matching
		// parallel.MapStealing's worker-count-independent error contract.
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
	}
	return results, committer.total, nil
}

// String describes the configuration, useful in experiment logs.
func (s *Simulator) String() string {
	c := s.cfg
	return fmt.Sprintf("gpu(%s: %d SMs, L1 %dKiB, L2 %dKiB)",
		c.Name, c.SMs, c.L1.SizeBytes>>10, c.L2.SizeBytes>>10)
}
