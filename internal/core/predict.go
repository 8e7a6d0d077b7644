package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/encoding"
	"repro/internal/mathx"
	"repro/internal/stats"
)

// predictChunk is the number of design points one worker scores per
// claim. Large enough to amortize scratch setup and keep the batched
// kernels in their blocked regime, small enough to balance load across
// workers on mid-sized pools.
const predictChunk = 512

// predictScratch is one worker's reusable buffers: the ANN scratch and
// the members×chunk member-prediction matrix. Pooled so steady-state
// batched prediction allocates nothing.
type predictScratch struct {
	s     *ann.Scratch
	preds []float64
}

var predictPool = sync.Pool{New: func() any { return &predictScratch{s: ann.NewScratch()} }}

func getPredictScratch(members int) *predictScratch {
	ps := predictPool.Get().(*predictScratch)
	if need := members * predictChunk; cap(ps.preds) < need {
		ps.preds = make([]float64, need)
	}
	ps.preds = ps.preds[:members*predictChunk]
	return ps
}

// Inputs returns the encoded input width the ensemble's members expect.
func (e *Ensemble) Inputs() int { return e.nets[0].Config().Inputs }

// PredictOutputBatchKernel scores rows encoded design points on
// ensemble output column output (0 is the primary target; multi-task
// ensembles carry auxiliary metrics in the further columns) with the
// given kernel tier. xs is a flat row-major matrix of rows points, each
// Inputs() wide; the member-mean predictions land in out (allocated
// when nil), which is also returned. This is the hot path for
// candidate-pool scoring, full-space sweeps and served predictions.
//
// The mode is a per-call argument so one shared ensemble can serve
// exact and fast queries concurrently. ann.KernelExact is the
// bit-identical reference; the fast tiers trade the documented mathx
// error bounds for throughput. Within a mode every row is bit-identical
// for any batch size, chunking or worker count.
func (e *Ensemble) PredictOutputBatchKernel(output int, xs []float64, rows int, out []float64, mode ann.KernelMode) []float64 {
	if out == nil {
		out = make([]float64, rows)
	}
	e.predictKernel(output, xs, rows, out, nil, mode)
	return out
}

// PredictOutputVarianceBatchKernel is PredictOutputBatchKernel plus the
// variance of the member predictions — the active-learning
// disagreement signal of Chapter 7. mean and variance are filled when
// non-nil and allocated otherwise; both are returned, and mean is bit
// for bit what PredictOutputBatchKernel returns for the same call.
func (e *Ensemble) PredictOutputVarianceBatchKernel(output int, xs []float64, rows int, mean, variance []float64, mode ann.KernelMode) ([]float64, []float64) {
	if mean == nil {
		mean = make([]float64, rows)
	}
	if variance == nil {
		variance = make([]float64, rows)
	}
	e.predictKernel(output, xs, rows, mean, variance, mode)
	return mean, variance
}

// predictKernel is the one scoring kernel behind every prediction: it
// runs each member's batched forward pass over predictChunk-row chunks
// (sharded across the ensemble's worker bound), denormalizes the
// output column, and reduces the members per row into mean and, when
// variance is non-nil, variance. The member reduction is float64 and
// identical across modes — only the forward kernels and the
// denormalization transcendental differ on the fast tiers.
func (e *Ensemble) predictKernel(output int, xs []float64, rows int, mean, variance []float64, mode ann.KernelMode) {
	if output < 0 || output >= e.outputs {
		panic(fmt.Sprintf("core: output %d out of range [0,%d)", output, e.outputs))
	}
	width := e.Inputs()
	if rows < 0 || len(xs) != rows*width {
		panic(fmt.Sprintf("core: batch of %d values is not %d rows × %d inputs", len(xs), rows, width))
	}
	if len(mean) != rows || (variance != nil && len(variance) != rows) {
		panic(fmt.Sprintf("core: output buffers have %d/%d slots for %d rows", len(mean), len(variance), rows))
	}
	members := len(e.nets)
	sc := e.scalers[output]
	e.forEachChunk(rows, func(start, end int, s *ann.Scratch, preds []float64) {
		cnt := end - start
		// preds[m*cnt+r] is member m's prediction for row start+r.
		for m, n := range e.nets {
			outM := n.ForwardBatch(xs[start*width:end*width], cnt, s, mode)
			col := preds[m*cnt : (m+1)*cnt]
			if mode == ann.KernelExact {
				for r := range col {
					col[r] = e.untransform(sc.Unscale(outM[r*e.outputs+output]))
				}
			} else {
				e.denormalizeFast(output, outM, cnt, col)
			}
		}
		// Member-order sum for the mean, then member-order squared
		// deviations for the variance.
		for r := 0; r < cnt; r++ {
			var sum float64
			for m := 0; m < members; m++ {
				sum += preds[m*cnt+r]
			}
			mu := sum / float64(members)
			mean[start+r] = mu
			if variance == nil {
				continue
			}
			var ss float64
			for m := 0; m < members; m++ {
				d := preds[m*cnt+r] - mu
				ss += d * d
			}
			variance[start+r] = ss / float64(members)
		}
	})
}

// denormalizeFast maps one member's model-space output column back to
// the raw target range for the fast kernel tiers: the affine unscale is
// fused (math.FMA, correctly rounded everywhere) and a log-transformed
// target uses the bounded-error mathx exponential in one batch pass
// instead of a library call per element.
func (e *Ensemble) denormalizeFast(output int, outM []float64, cnt int, dst []float64) {
	sc := e.scalers[output]
	span := sc.Hi - sc.Lo
	for r := 0; r < cnt; r++ {
		dst[r] = math.FMA(outM[r*e.outputs+output], span, sc.Lo)
	}
	if e.logT {
		mathx.ExpSlice(dst[:cnt])
	}
}

// PredictIndices encodes the design-point indices through enc and
// scores them on the primary target with the exact kernel — the common "evaluate the
// model on this list of points" idiom. Encoding and prediction stream
// in fixed-size blocks, so a full-space evaluation set costs one
// block's buffer, not O(points) memory; rows are independent, so the
// blocking leaves every prediction bit-identical.
func (e *Ensemble) PredictIndices(enc *encoding.Encoder, idxs []int) []float64 {
	width := enc.Width()
	out := make([]float64, len(idxs))
	const block = 4096
	xs := make([]float64, min(block, len(idxs))*width)
	for lo := 0; lo < len(idxs); lo += block {
		hi := min(lo+block, len(idxs))
		for i, idx := range idxs[lo:hi] {
			enc.EncodeIndex(idx, xs[i*width:(i+1)*width])
		}
		e.predictKernel(0, xs[:(hi-lo)*width], hi-lo, out[lo:hi], nil, ann.KernelExact)
	}
	return out
}

// TrueError measures the ensemble's mean and standard deviation of
// absolute percentage error on the primary target over the given
// design points, against the supplied ground truth (one batched
// prediction, zero simulations). Points whose truth is exactly 0 are
// skipped — percentage error is undefined there — and used reports how
// many points actually entered the statistics.
func (e *Ensemble) TrueError(enc *encoding.Encoder, idxs []int, truth []float64) (mean, sd float64, used int) {
	if len(idxs) != len(truth) {
		panic(fmt.Sprintf("core: %d points but %d truth values", len(idxs), len(truth)))
	}
	preds := e.PredictIndices(enc, idxs)
	var errs []float64
	for i := range idxs {
		if truth[i] == 0 {
			continue
		}
		d := (preds[i] - truth[i]) / truth[i] * 100
		if d < 0 {
			d = -d
		}
		errs = append(errs, d)
	}
	mean, sd = stats.MeanStd(errs)
	return mean, sd, len(errs)
}

// forEachChunk splits [0, rows) into predictChunk-sized ranges and runs
// fn over them, fanning out across the ensemble's worker bound when the
// batch is large enough to pay for the goroutines. Each invocation gets
// a private scratch and a members×chunk scratch buffer, so fn may use
// them freely without locking.
func (e *Ensemble) forEachChunk(rows int, fn func(start, end int, s *ann.Scratch, preds []float64)) {
	if rows == 0 {
		return
	}
	nchunks := (rows + predictChunk - 1) / predictChunk
	workers := e.workers
	if workers < 1 {
		workers = 1
	}
	if workers > nchunks {
		workers = nchunks
	}
	run := func(s *ann.Scratch, preds []float64, c int) {
		start := c * predictChunk
		end := start + predictChunk
		if end > rows {
			end = rows
		}
		fn(start, end, s, preds)
	}
	if workers == 1 {
		ps := getPredictScratch(len(e.nets))
		for c := 0; c < nchunks; c++ {
			run(ps.s, ps.preds, c)
		}
		predictPool.Put(ps)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := getPredictScratch(len(e.nets))
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					predictPool.Put(ps)
					return
				}
				run(ps.s, ps.preds, c)
			}
		}()
	}
	wg.Wait()
}
