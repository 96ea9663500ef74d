package gpu

import "math"

// heapEntry is one resident warp as the engine holds it in registers: the
// cycle at which the warp can issue next, and the index of its state in the
// simulator's pooled warp-slot arena.
type heapEntry struct {
	ready float64
	slot  int32
}

// warpHeap is the warp-scheduling min-heap in struct-of-arrays layout:
// keys[i] is entry i's ready cycle and slots[i] its warp-slot index, for i
// in [0, n). Logically it is the same array of (ready, slot) pairs the
// boxed container/heap held — every sift moves key and slot together, so
// the pair sequence, and with it tie order among equal ready values, is
// bit-for-bit what container/heap produces (pinned property-style by
// TestWarpHeapMatchesContainerHeap). Physically, splitting the arrays is
// what the engine's hot descent wants: the two children it compares at each
// level sit 8 bytes apart instead of 16, the compare path's working set
// halves (512 resident warps scan 4 KiB of keys, not 8 KiB of pairs), and a
// shifted key can be stored straight from the register its compare loaded.
//
// Sentinel invariant: keys always holds one element past the live heap,
// keys[n] == +Inf, maintained by push/pop/reset. A descent's right-child
// probe may then read keys[j+1] unconditionally — when j+1 == n the
// sentinel loses every comparison exactly as the old `j+1 < n` guard's
// skip did: +Inf < x is false for every live x (a +Inf key ties, and ties
// prefer the left child; NaN compares false anyway), and in the bits
// domain (see pushPop) non-NaN keys are <= the +Inf bit pattern with
// equality only for +Inf itself. That deletes a bounds branch from every
// level of the per-instruction descent. slots needs no sentinel: a slot is
// only read after its key wins a comparison, which the sentinel never does.
type warpHeap struct {
	keys  []float64
	slots []int32
	n     int
}

// reset empties the heap, keeping capacity and restoring the sentinel.
func (h *warpHeap) reset() {
	if cap(h.keys) == 0 {
		h.keys = make([]float64, 1, 64)
		h.slots = make([]int32, 0, 64)
	}
	h.keys = h.keys[:1]
	h.keys[0] = math.Inf(1)
	h.slots = h.slots[:0]
	h.n = 0
}

// push appends an entry and restores the heap property, producing the
// array container/heap's Push produces, element for element: the same
// strict-< comparator decides the same climb, so entries with equal ready
// values keep their relative insertion-order positions precisely as they
// did under container/heap. The climb is hole-based: instead of swapping
// the new entry up level by level (two stores per level), displaced
// parents are shifted down into the hole and the entry is stored once at
// its final position. A sequence of adjacent swaps along one path is
// exactly such a rotation, so the final array is identical to the
// swap-based version's.
func (h *warpHeap) push(ready float64, slot int32) {
	n := h.n
	h.keys = append(h.keys, math.Inf(1)) // index n+1: the new sentinel
	h.slots = append(h.slots, 0)         // index n: overwritten below
	keys, slots := h.keys, h.slots
	j := n
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(ready < keys[i]) {
			break
		}
		keys[j] = keys[i]
		slots[j] = slots[i]
		j = i
	}
	keys[j] = ready
	slots[j] = slot
	h.n = n + 1
}

// pop removes and returns the minimum entry, producing the array
// container/heap's Pop produces: the root is replaced by the last element,
// which sifts down over the shortened heap preferring the right child only
// when strictly smaller and descending only on strict inequality, then the
// heap is truncated. The descent is hole-based — smaller children are
// shifted up into the hole and the sifted value is stored once — the same
// rotation the baseline's adjacent swaps perform, so the live array is
// bit-for-bit the swap-based result. The vacated index-n slot becomes the
// new sentinel. Comparisons are plain float compares, valid for any key
// domain (pop also serves the engine's non-fastOK fallback path).
func (h *warpHeap) pop() heapEntry {
	n := h.n - 1
	keys := h.keys[: n+1 : cap(h.keys)]
	slots := h.slots
	top := heapEntry{ready: keys[0], slot: slots[0]}
	v := keys[n]
	vs := slots[n]
	keys[n] = math.Inf(1) // new sentinel over the vacated slot
	h.keys = keys
	h.slots = slots[:n]
	h.n = n
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if keys[j+1] < keys[j] { // sentinel makes the j+1 == n probe safe
			j++ // right child is strictly smaller
		}
		if !(keys[j] < v) {
			break
		}
		keys[i] = keys[j]
		slots[i] = slots[j]
		i = j
	}
	keys[i] = v
	slots[i] = vs
	return top
}

// pushPopIsNoop reports whether pushing an entry whose ready value is
// STRICTLY below keys[0] and immediately popping would (a) return that
// entry and (b) leave the heap arrays bit-for-bit unchanged. It is the gate
// for RunKernel's held-entry fast path: when it holds, the push/pop pair
// the baseline engine would perform is provably the identity on the heap,
// so the optimized engine may skip both sifts entirely without perturbing
// future pop order — including tie order among equal ready values, which
// the array layout determines.
//
// Proof sketch (x = pushed entry, n = live size, chain a_0=0, a_1, ..,
// a_m=(n-1)/2 the ancestors of the insertion index n, u_k = keys[a_k], so
// u_0 <= u_1 <= ... <= u_m by the heap property):
//
//	Push appends x at index n; since x < keys[0] <= u_k for every k, the
//	sift-up swaps x past the whole chain, leaving x at the root, u_m at
//	index n, and every other chain value shifted one link down
//	(keys[a_k] = u_{k-1}). Pop then swaps root and last — returning x —
//	and sifts u_m down from the root over the truncated array. The array
//	is restored exactly iff that sift-down retraces the chain, swapping
//	u_m past each shifted value: at chain node a_k it must (1) select the
//	chain child a_{k+1} over its sibling s (guaranteed when a_{k+1} is a
//	LEFT child, because u_k <= keys[s] by the heap property and sift-down
//	prefers the left child on ties; for a RIGHT child a tie u_k == keys[s]
//	selects the sibling instead, so u_k < keys[s] must be strict), and
//	(2) swap, which requires u_k < u_m strictly — equivalent, along the
//	monotone chain, to u_{m-1} < u_m. When u_m reaches a_m it stops: its
//	remaining in-range child (n-1, when n is even) held u_m as its parent
//	originally, so no further swap fires. For n <= 2 the chain has no
//	interior (m = 0) and push+pop is the identity unconditionally.
//
// Any tie that violates these conditions makes push+pop rotate distinct
// equal-ready entries through the chain — a layout change that can reorder
// later tied pops — so the caller must fall back to the exact push/pop
// sequence. The predicate is conservative (it compares ready values, never
// slots) and read-only; TestHeapPushPopNoopOracle pins it property-style
// against the real push+pop.
func (h *warpHeap) pushPopIsNoop() bool {
	n := h.n
	if n <= 2 {
		return true
	}
	keys := h.keys
	j := (n - 1) / 2 // a_m: parent of the would-be insertion index
	if !(keys[(j-1)/2] < keys[j]) {
		return false // last chain edge u_{m-1} < u_m must be strict
	}
	for j > 0 {
		i := (j - 1) / 2
		// A right-child chain link (even index) is selected by sift-down
		// only if the shifted parent value beats the left sibling strictly.
		if j&1 == 0 && !(keys[i] < keys[j-1]) {
			return false
		}
		j = i
	}
	return true
}

// pushPop performs, in one pass and without growing the heap, exactly what
// push(e.ready, e.slot) followed by pop() would do: it returns the entry
// that pop would return and leaves the live arrays bit-for-bit identical.
// It requires n >= 1 and the non-negative, non-NaN key domain described
// below (RunKernel's fastOK gate); outside that domain callers must run the
// real pair.
//
// Derivation (n = live size, insertion index n, ancestor chain a_0 = 0,
// ..., a_m = (n-1)/2 with values u_0 <= ... <= u_m):
//
//   - No climb (e >= u_m): push's sift-up leaves e at index n, so pop swaps
//     it straight to the root and sifts it down over [0, n) — a pure
//     replace-root: return the root, sift e from the root.
//   - Partial climb (u_0 <= e < u_m): push shifts the upper chain values
//     one link down and lodges e at some a_q (q >= 1), leaving u_m at index
//     n; the root is untouched. Pop then returns the root and sifts u_m
//     down over [0, n). The code replays the same shifts (identical
//     strict-< stops), stores e at its rest position, and runs that sift.
//   - Full climb (e < u_0): as above but e reaches the root, so pop's swap
//     returns e itself and u_m sifts over the fully shifted chain. (This is
//     the case pushPopIsNoop proves to be the identity when the chain
//     conditions hold; RunKernel's skip path short-circuits it entirely.)
//
// All three cases end in the same sift: place a value v by the exact
// descent pop performs after its root/last swap — starting from a hole at
// index 0, smaller children shift up (the right child wins only when
// strictly smaller, descent continues only while the selected child is
// strictly smaller than v) and v is stored once at its final position. The
// index-n slot the pair would touch is never materialized — it keeps its
// sentinel — so the pair's append/truncate traffic and root/last swap
// disappear, which matters because this runs once per simulated
// instruction.
//
// Comparisons are on raw IEEE-754 bit patterns: for non-negative, non-NaN
// float64s the unsigned integer order of the bits is exactly the float
// order (sign bit clear, biased exponent then mantissa lexicographic), and
// +0 is the only zero that can arise — event times are sums/maxima of
// non-negative terms, and (+0)+(-0) rounds to +0 — so strictness, which
// decides tie handling, is preserved too. RunKernel guarantees the
// precondition by checking its latency table once per kernel and routing
// every handoff through the exact float-compare push/pop pair when any
// constant is negative or NaN. Integer keys buy two things on this
// per-instruction path: the child select and the descend/stop test both
// compile to flag-setting integer compares feeding conditional moves (as
// two single-destination conditional assignments off one compare — the
// combined two-destination form compiles to a branch that mispredicts
// roughly half the time, since which child wins is a coin flip at every
// level), and the selected child's key stays in a register for the stop
// test and the shift store instead of being re-loaded through the
// CMOV-dependent index. Pinned by TestHeapPushPopFusedMatchesPair and
// TestRunKernelMatchesReferenceLoop.
func (h *warpHeap) pushPop(e heapEntry) heapEntry {
	n := h.n
	keys := h.keys[: n+1 : cap(h.keys)]
	slots := h.slots
	ek := math.Float64bits(e.ready)
	j := (n - 1) / 2 // a_m: parent of the would-be insertion index
	vk := ek         // key of the value the final sift places
	vs := e.slot
	top := heapEntry{ready: keys[0], slot: slots[0]}
	if ek < math.Float64bits(keys[j]) {
		// e climbs past a_m: the chain value u_m is what re-sifts instead,
		// and the displaced ancestors shift down while strictly larger.
		vk = math.Float64bits(keys[j])
		vs = slots[j]
		for j > 0 {
			i := (j - 1) / 2
			if ek >= math.Float64bits(keys[i]) {
				break
			}
			keys[j] = keys[i]
			slots[j] = slots[i]
			j = i
		}
		if j > 0 {
			// Partial climb: e rests at j; the untouched root is popped.
			keys[j] = e.ready
			slots[j] = e.slot
		} else {
			// Full climb: pop's swap returns e itself.
			top = e
		}
	}
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		k := math.Float64bits(keys[j])
		k2 := math.Float64bits(keys[j+1]) // sentinel makes j+1 == n safe
		d := 0
		if k2 < k {
			d = 1
		}
		j += d
		if k2 < k {
			k = k2
		}
		if k >= vk {
			break
		}
		keys[i] = math.Float64frombits(k)
		slots[i] = slots[j]
		i = j
	}
	keys[i] = math.Float64frombits(vk)
	slots[i] = vs
	return top
}
