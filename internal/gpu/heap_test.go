package gpu

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"
)

// refHeap drives container/heap over the same entries, as the pre-arena
// engine did, to serve as the equivalence oracle.
type refHeap []heapEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].ready < h[j].ready }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// sameLayout reports whether the struct-of-arrays heap holds exactly the
// entry sequence ref holds, pair for pair, plus an intact +Inf sentinel at
// keys[n] — the layout determines future tie resolution, so matching pop
// order alone would be too weak an oracle.
func sameLayout(h *warpHeap, ref refHeap) bool {
	if h.n != len(ref) || len(h.keys) != h.n+1 || len(h.slots) != h.n {
		return false
	}
	if !math.IsInf(h.keys[h.n], 1) {
		return false
	}
	for i, e := range ref {
		if h.keys[i] != e.ready || h.slots[i] != e.slot {
			return false
		}
	}
	return true
}

// TestWarpHeapMatchesContainerHeap is the heap-equivalence argument as a
// property test: for random interleavings of pushes and pops — including
// many equal keys, which is where tie-handling differences would surface —
// the inline heap must return entries in exactly the order container/heap
// does AND hold the identical internal array layout after every operation.
func TestWarpHeapMatchesContainerHeap(t *testing.T) {
	check := func(seed uint64) bool {
		r := seed
		next := func() uint64 { r = r*6364136223846793005 + 1442695040888963407; return r }
		var got warpHeap
		got.reset()
		ref := refHeap{}
		for op := 0; op < 400; op++ {
			// Push twice as often as pop so the heap grows; duplicate keys
			// are frequent (8 distinct values).
			if next()%3 != 0 || got.n == 0 {
				e := heapEntry{ready: float64(next() % 8), slot: int32(op)}
				got.push(e.ready, e.slot)
				heap.Push(&ref, e)
			} else {
				ge := got.pop()
				re := heap.Pop(&ref).(heapEntry)
				if ge != re {
					return false
				}
			}
			if !sameLayout(&got, ref) {
				return false
			}
		}
		// Drain both.
		for got.n > 0 {
			if ge, re := got.pop(), heap.Pop(&ref).(heapEntry); ge != re {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRunKernelSteadyStateAllocs pins the tentpole property: once the
// scratch arena has reached its high-water mark (first call), RunKernel
// performs no steady-state heap allocation. The budget of 2 leaves slack
// for incidental runtime allocations (e.g. stack growth) without letting a
// per-warp or per-instruction allocation regress unnoticed — any pooled
// object leaking back to per-call make/new shows up as tens to hundreds.
func TestRunKernelSteadyStateAllocs(t *testing.T) {
	sim := mustSim(t, Baseline())
	spec := goldenSpec(0.5, 0.5, 0.3, 1<<20, 2e8, 1)
	sim.RunKernel(spec) // reach the high-water mark
	avg := testing.AllocsPerRun(5, func() {
		sim.RunKernel(spec)
	})
	if avg > 2 {
		t.Fatalf("RunKernel steady state allocates %.1f objects per kernel, want <= 2", avg)
	}
}

// TestRunKernelAllocsAcrossSpecs ensures the arena absorbs spec-to-spec
// variation too: alternating between kernels of different shapes must not
// reintroduce per-kernel allocations once both shapes have been seen.
func TestRunKernelAllocsAcrossSpecs(t *testing.T) {
	sim := mustSim(t, Baseline())
	a := goldenSpec(0.5, 0.5, 0.3, 1<<20, 2e8, 1)
	b := goldenSpec(0.9, 0.2, 1.0, 2<<20, 1e8, 2)
	sim.RunKernel(a)
	sim.RunKernel(b)
	avg := testing.AllocsPerRun(3, func() {
		sim.RunKernel(a)
		sim.RunKernel(b)
	})
	if avg > 4 {
		t.Fatalf("alternating kernels allocate %.1f objects per pair, want <= 4", avg)
	}
}
