package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

// naiveTopVariance is the sorted reference defining topVariance's
// contract: highest variance first, exact ties by earlier draw order.
func naiveTopVariance(idxs []int, vs []float64, n int) []int {
	type cand struct {
		idx, pos int
		v        float64
	}
	cands := make([]cand, len(idxs))
	for i, idx := range idxs {
		cands[i] = cand{idx, i, vs[i]}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].v != cands[j].v {
			return cands[i].v > cands[j].v
		}
		return cands[i].pos < cands[j].pos
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}

func TestTopVarianceMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		pool := 1 + rng.Intn(400)
		n := 1 + rng.Intn(pool)
		idxs := make([]int, pool)
		vs := make([]float64, pool)
		for i := range idxs {
			idxs[i] = i
			// Coarse quantization forces plenty of exact ties.
			vs[i] = float64(rng.Intn(8))
		}
		got := topVariance(idxs, vs, n)
		want := naiveTopVariance(idxs, vs, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d picks, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (pool=%d n=%d): pick %d is %d, want %d",
					trial, pool, n, i, got[i], want[i])
			}
		}
	}
}

func TestTopVarianceBounds(t *testing.T) {
	if got := topVariance(nil, nil, 5); got != nil {
		t.Fatalf("empty pool returned %v", got)
	}
	got := topVariance([]int{3, 9}, []float64{1, 2}, 5)
	if len(got) != 2 || got[0] != 9 || got[1] != 3 {
		t.Fatalf("n beyond pool returned %v, want [9 3]", got)
	}
}

// selectionSortTopVariance is the literal O(n·pool) partial selection
// sort that selectByVariance used before the heap, kept only so the
// benchmark can quantify the win.
func selectionSortTopVariance(idxs []int, vs []float64, n int) []int {
	type cand struct {
		idx int
		v   float64
	}
	cands := make([]cand, len(idxs))
	for i, idx := range idxs {
		cands[i] = cand{idx, vs[i]}
	}
	if n > len(cands) {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].v > cands[best].v {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// historicRejectionDraw is the literal rejection loop Random and
// ByVariance always used: uniform draws over the whole space,
// re-drawing reserved or repeated points. It defines the RNG
// consumption the non-fallback regime of drawDistinct must reproduce
// draw for draw.
func historicRejectionDraw(s *BatchSelector, rng *stats.RNG, k int) []int {
	if avail := s.Remaining(); k > avail {
		k = avail
	}
	if k <= 0 {
		return nil
	}
	size := s.sp.Size()
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		idx := rng.Intn(size)
		if s.reserved[idx] || seen[idx] {
			continue
		}
		seen[idx] = true
		out = append(out, idx)
	}
	return out
}

// enumerationDraw is the fallback reference: drawable points in
// ascending order, then a k-step partial Fisher–Yates — exactly k Intn
// draws.
func enumerationDraw(s *BatchSelector, rng *stats.RNG, k int) []int {
	cand := make([]int, 0, s.Remaining())
	for idx := 0; idx < s.sp.Size(); idx++ {
		if !s.reserved[idx] {
			cand = append(cand, idx)
		}
	}
	if k > len(cand) {
		k = len(cand)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
		out[i] = cand[i]
	}
	return out
}

// reserveFirst reserves the lowest n indices of the selector's space.
func reserveFirst(s *BatchSelector, n int) {
	for idx := 0; idx < n; idx++ {
		s.Reserve(idx)
	}
}

// TestDrawDistinctParityOutsideFallback proves the coupon-collector fix
// changed nothing outside the fallback regime: for reservation states
// where (Remaining−k+1)·enumFallbackDivisor ≥ Size, drawDistinct
// returns the historic rejection loop's exact sequence and leaves the
// RNG in the exact state the historic loop would have — so existing
// seeds, checkpoints and published runs replay bit-identically.
func TestDrawDistinctParityOutsideFallback(t *testing.T) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	size := sp.Size()
	for _, k := range []int{1, 4, 25} {
		// Densest reservation state still outside the fallback regime
		// for this k, plus lighter ones.
		maxReserved := size - (size+enumFallbackDivisor-1)/enumFallbackDivisor - k + 1
		for _, reserved := range []int{0, size / 2, maxReserved} {
			if reserved < 0 {
				continue
			}
			avail := size - reserved
			if (avail-k+1)*enumFallbackDivisor < size {
				t.Fatalf("k=%d reserved=%d: test case landed inside the fallback regime", k, reserved)
			}
			s := NewBatchSelector(sp, enc, stats.NewRNG(101))
			reserveFirst(s, reserved)
			ref := NewBatchSelector(sp, enc, stats.NewRNG(101))
			reserveFirst(ref, reserved)
			refRNG := stats.NewRNG(101)
			for round := 0; round < 3; round++ {
				got := s.drawDistinct(k)
				want := historicRejectionDraw(ref, refRNG, k)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("k=%d reserved=%d round %d: %v != historic %v", k, reserved, round, got, want)
				}
				if s.RNG().State() != refRNG.State() {
					t.Fatalf("k=%d reserved=%d round %d: RNG state diverged from historic loop", k, reserved, round)
				}
			}
		}
	}
}

// TestDrawDistinctNearExhaustionFallback pins the fallback regime: with
// the drawable pool nearly exhausted, drawDistinct must terminate in
// exactly k RNG draws (the partial Fisher–Yates of the enumeration
// reference), return distinct unreserved points, and remain a pure
// function of (seed, reservation state).
func TestDrawDistinctNearExhaustionFallback(t *testing.T) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	size := sp.Size()
	const k = 4
	for _, avail := range []int{k + 1, k, 2} {
		s := NewBatchSelector(sp, enc, stats.NewRNG(55))
		reserveFirst(s, size-avail)
		if (avail-min(k, avail)+1)*enumFallbackDivisor >= size {
			t.Fatalf("avail=%d: not in the fallback regime", avail)
		}
		ref := NewBatchSelector(sp, enc, stats.NewRNG(55))
		reserveFirst(ref, size-avail)
		refRNG := stats.NewRNG(55)
		got := s.drawDistinct(k)
		want := enumerationDraw(ref, refRNG, k)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("avail=%d: %v != enumeration reference %v", avail, got, want)
		}
		if s.RNG().State() != refRNG.State() {
			t.Fatalf("avail=%d: consumed draws beyond the k-step Fisher–Yates", avail)
		}
		seen := make(map[int]bool)
		for _, idx := range got {
			if s.IsReserved(idx) || seen[idx] {
				t.Fatalf("avail=%d: draw %v repeats or hits reserved points", avail, got)
			}
			seen[idx] = true
		}
		if wantLen := min(k, avail); len(got) != wantLen {
			t.Fatalf("avail=%d: drew %d points, want %d", avail, len(got), wantLen)
		}
	}
}

// TestRandomDrainsExhaustedPool is the user-visible symptom the fallback
// fixes: draining the last points of a large space must terminate
// promptly and return every drawable point exactly once.
func TestRandomDrainsExhaustedPool(t *testing.T) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	s := NewBatchSelector(sp, enc, stats.NewRNG(9))
	var drawn []int
	for s.Remaining() > 0 {
		batch := s.Random(7)
		if len(batch) == 0 {
			t.Fatalf("empty batch with %d points remaining", s.Remaining())
		}
		for _, idx := range batch {
			s.Reserve(idx)
			drawn = append(drawn, idx)
		}
	}
	if len(drawn) != sp.Size() {
		t.Fatalf("drained %d points from a %d-point space", len(drawn), sp.Size())
	}
	sort.Ints(drawn)
	for i, idx := range drawn {
		if idx != i {
			t.Fatalf("point %d missing or repeated in drained sequence", i)
		}
	}
	if got := s.Random(3); got != nil {
		t.Fatalf("exhausted pool returned %v", got)
	}
}

// TestVarianceSelectionPrefersUncertainPoints scores every drawable
// point (the pool covers the whole complement) and checks that
// ByVariance returns distinct, unreserved points on which the ensemble
// disagrees at least as much as on any point it passed over.
func TestVarianceSelectionPrefersUncertainPoints(t *testing.T) {
	sp := synthSpace()
	enc := newTestEncoder(sp)
	train := sp.Sample(stats.NewRNG(5), 40)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	cfg := fastModel()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBatchSelector(sp, enc, stats.NewRNG(6))
	for _, idx := range train {
		s.Reserve(idx)
	}
	const n = 20
	picked := s.ByVariance(ens, n, sp.Size())
	if len(picked) != n {
		t.Fatalf("ByVariance picked %d points, want %d", len(picked), n)
	}
	variance := func(idx int) float64 {
		_, v := ens.PredictOutputVarianceBatchKernel(0, enc.EncodeIndex(idx, nil), 1, nil, nil, ann.KernelExact)
		return v[0]
	}
	chosen := map[int]bool{}
	minPicked := math.Inf(1)
	for _, idx := range picked {
		if chosen[idx] || s.IsReserved(idx) {
			t.Fatalf("ByVariance returned point %d twice or from the reserved set", idx)
		}
		chosen[idx] = true
		minPicked = math.Min(minPicked, variance(idx))
	}
	for idx := 0; idx < sp.Size(); idx++ {
		if !chosen[idx] && !s.IsReserved(idx) && variance(idx) > minPicked {
			t.Fatalf("unpicked point %d has variance %g above the picked minimum %g", idx, variance(idx), minPicked)
		}
	}
}

// BenchmarkTopVariance measures the top-n extraction alone at the pool
// sizes where active learning hurts: 50-point batches over 10k–100k
// candidate pools. The heap is O(pool·log n) against the selection
// sort's O(n·pool).
func BenchmarkTopVariance(b *testing.B) {
	for _, pool := range []int{10_000, 100_000} {
		rng := stats.NewRNG(11)
		idxs := make([]int, pool)
		vs := make([]float64, pool)
		for i := range idxs {
			idxs[i] = i
			vs[i] = rng.Float64()
		}
		const n = 50
		b.Run(fmt.Sprintf("heap/pool=%d", pool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topVariance(idxs, vs, n)
			}
		})
		b.Run(fmt.Sprintf("selection-sort/pool=%d", pool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				selectionSortTopVariance(idxs, vs, n)
			}
		})
	}
}
