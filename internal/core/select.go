package core

import (
	"container/heap"
	"sort"

	"repro/internal/ann"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

// BatchSelector implements the exploration loop's batch-selection
// strategies over one design space, tracking which points remain
// drawable. explore.Driver draws every batch through it, and the
// driver's parity tests replay the same draws in a plain sequential
// loop, so the RNG is consumed in exactly the same order by both — the
// property checkpoint resume and the parity tests rely on. It is not
// safe for concurrent use; the driver serializes selection on its
// orchestration goroutine.
type BatchSelector struct {
	sp       *space.Space
	enc      *encoding.Encoder
	rng      *stats.RNG
	reserved map[int]bool // simulated, excluded, or quarantined points
}

// NewBatchSelector builds a selector drawing from sp with rng. Every
// point starts drawable; callers Reserve the ones that must never be
// returned (held-out evaluation sets, already-simulated points,
// quarantined failures).
func NewBatchSelector(sp *space.Space, enc *encoding.Encoder, rng *stats.RNG) *BatchSelector {
	return &BatchSelector{sp: sp, enc: enc, rng: rng, reserved: make(map[int]bool)}
}

// Reserve permanently removes a design point from the draw pool.
func (s *BatchSelector) Reserve(idx int) { s.reserved[idx] = true }

// IsReserved reports whether idx has been reserved.
func (s *BatchSelector) IsReserved(idx int) bool { return s.reserved[idx] }

// Remaining returns the number of still-drawable design points.
func (s *BatchSelector) Remaining() int { return s.sp.Size() - len(s.reserved) }

// RNG exposes the selector's generator, so checkpointing can capture
// and restore the exact selection stream.
func (s *BatchSelector) RNG() *stats.RNG { return s.rng }

// enumFallbackDivisor decides when drawDistinct abandons rejection
// sampling for the enumeration fallback: once the worst-case accept
// probability of the rejection loop — (Remaining−k+1)/Size for the
// final draw — falls below 1/enumFallbackDivisor, the expected RNG
// draws per accept exceed the divisor and the loop is deep in
// coupon-collector territory (O(size·log size) draws to find the last
// few drawable points). One O(size) enumeration is strictly cheaper
// there, and bounded.
const enumFallbackDivisor = 16

// drawDistinct draws k distinct unreserved indices, consuming the
// selection RNG deterministically. Away from pool exhaustion it is the
// historic rejection loop — uniform draws over the whole space,
// re-drawing reserved or repeated points — and consumes the RNG
// exactly as it always has, which checkpoint resume bit-identity
// depends on. Near exhaustion (see enumFallbackDivisor) it switches to
// enumerating the drawable points in ascending order and taking a
// k-step partial Fisher–Yates shuffle: exactly k Intn draws, same
// uniform-without-replacement distribution, no unbounded tail. The
// regimes consume the RNG differently, so the switch threshold is part
// of the selection contract: a given (seed, reservation state) is
// always in exactly one regime.
func (s *BatchSelector) drawDistinct(k int) []int {
	avail := s.Remaining()
	if k > avail {
		k = avail
	}
	if k <= 0 {
		return nil
	}
	size := s.sp.Size()
	if (avail-k+1)*enumFallbackDivisor < size {
		cand := make([]int, 0, avail)
		for idx := 0; idx < size; idx++ {
			if !s.reserved[idx] {
				cand = append(cand, idx)
			}
		}
		out := make([]int, k)
		for i := 0; i < k; i++ {
			j := i + s.rng.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			out[i] = cand[i]
		}
		return out
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		idx := s.rng.Intn(size)
		if s.reserved[idx] || seen[idx] {
			continue
		}
		seen[idx] = true
		out = append(out, idx)
	}
	return out
}

// Random draws up to n distinct unreserved points uniformly — the
// paper's §3.3 sampling. The returned points are NOT reserved; the
// caller reserves them once their simulations are recorded (or
// quarantined), keeping selection side-effect-free until an oracle
// result actually exists.
func (s *BatchSelector) Random(n int) []int {
	return s.drawDistinct(n)
}

// drawPool draws the candidate pool every ensemble-scored selection
// strategy scores over: up to pool distinct unreserved points (pool
// <= 0 selects 20×n, clamped to the drawable count), returned with
// their encoded inputs. The draw consumes the selection RNG exactly
// like Random's, so every strategy sharing this pool replays
// bit-identically from a checkpoint.
func (s *BatchSelector) drawPool(n, pool int) ([]int, []float64) {
	if avail := s.Remaining(); n > avail {
		n = avail
	}
	if n <= 0 {
		return nil, nil
	}
	if pool <= 0 {
		pool = 20 * n
	}
	// Clamp to the points actually drawable: reserved covers simulated,
	// excluded and quarantined indices, none of which are candidates.
	if avail := s.Remaining(); pool > avail {
		pool = avail
	}
	idxs := s.drawDistinct(pool)
	width := s.enc.Width()
	xs := make([]float64, len(idxs)*width)
	for i, idx := range idxs {
		s.enc.EncodeIndex(idx, xs[i*width:(i+1)*width])
	}
	return idxs, xs
}

// ByVariance scores a random pool of unreserved candidates with the
// ensemble and returns the n on which its members disagree most, in
// decreasing disagreement order (ties broken by draw order) — the
// Chapter 7 active-learning batch. pool <= 0 selects 20×n candidates.
// Like Random, the returned points are not reserved.
func (s *BatchSelector) ByVariance(ens *Ensemble, n, pool int) []int {
	idxs, xs := s.drawPool(n, pool)
	if len(idxs) == 0 {
		return nil
	}
	_, vs := ens.PredictOutputVarianceBatchKernel(0, xs, len(idxs), nil, nil, ann.KernelExact)
	return topVariance(idxs, vs, n)
}

// Acquire selects up to n points with the given acquisition function —
// the frontier-aware generalization of ByVariance. The candidate pool
// is drawn exactly as ByVariance draws it (same RNG stream), trainXs
// are the encoded inputs of the already-simulated points (the
// predicted-frontier reference set), and the returned points are not
// reserved.
func (s *BatchSelector) Acquire(acq Acquirer, ens *Ensemble, trainXs [][]float64, n, pool int) ([]int, error) {
	return acq.Select(s, ens, trainXs, n, pool)
}

// scored pairs a candidate with its ensemble disagreement and its draw
// position, the deterministic tie-breaker.
type scored struct {
	idx, pos int
	v        float64
}

// weaker orders candidates for the bounded min-heap: a is weaker than b
// when it has lower variance, or equal variance drawn later.
func weaker(a, b scored) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	return a.pos > b.pos
}

// varianceHeap is a min-heap whose root is the weakest kept candidate.
type varianceHeap []scored

func (h varianceHeap) Len() int            { return len(h) }
func (h varianceHeap) Less(i, j int) bool  { return weaker(h[i], h[j]) }
func (h varianceHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *varianceHeap) Push(x interface{}) { *h = append(*h, x.(scored)) }
func (h *varianceHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// topVariance returns the n candidates with the highest variance in
// decreasing order (ties by draw position), via a bounded min-heap:
// O(pool·log n) against the O(n·pool) selection-sort it replaced,
// which dominated a round's cost at 10k+ candidate pools.
func topVariance(idxs []int, vs []float64, n int) []int {
	if n > len(idxs) {
		n = len(idxs)
	}
	if n <= 0 {
		return nil
	}
	h := make(varianceHeap, 0, n)
	for i, idx := range idxs {
		c := scored{idx: idx, pos: i, v: vs[i]}
		if len(h) < n {
			heap.Push(&h, c)
		} else if weaker(h[0], c) {
			h[0] = c
			heap.Fix(&h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return weaker(h[j], h[i]) })
	out := make([]int, len(h))
	for i, c := range h {
		out[i] = c.idx
	}
	return out
}
