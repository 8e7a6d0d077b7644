package core

import (
	"math"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

// trainSynthEnsemble builds a small trained ensemble over the synthetic
// space for prediction tests, plus a sample of encoded points.
func trainSynthEnsemble(t *testing.T, cfg ModelConfig, seed uint64) (*Ensemble, [][]float64) {
	t.Helper()
	sp := synthSpace()
	rng := stats.NewRNG(seed)
	train := sp.Sample(rng, 60)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Encoded probes over the rest of the space.
	probes := make([][]float64, 0, 300)
	for idx := 0; idx < sp.Size() && len(probes) < 300; idx += 2 {
		probes = append(probes, enc.EncodeIndex(idx, nil))
	}
	return ens, probes
}

func flatten(points [][]float64) ([]float64, int) {
	if len(points) == 0 {
		return nil, 0
	}
	w := len(points[0])
	out := make([]float64, len(points)*w)
	for i, p := range points {
		copy(out[i*w:(i+1)*w], p)
	}
	return out, len(points)
}

// predictOne scores one encoded point on the primary target with the
// exact kernel: the rows=1 call the per-point tests use.
func predictOne(e *Ensemble, x []float64) float64 {
	return e.PredictOutputBatchKernel(0, x, 1, nil, ann.KernelExact)[0]
}

// TestPredictKernelParity is the parity property of the two scoring
// entry points, on every kernel tier, on both outputs of a multi-task
// ensemble, for batches below, across and beyond the chunk boundary,
// with one and four workers. Bit for bit: row r of an N-row call
// equals a rows=1 call on that row; the mean-only call equals the mean
// of the variance call; and the variance call fills and returns the
// caller's buffers. Every variance is non-negative. On the exact tier every row also matches a
// member-by-member reference built from the networks directly.
func TestPredictKernelParity(t *testing.T) {
	ens := trainMultiTask(t, 11)
	const maxRows = 1100
	width := ens.Inputs()
	rng := stats.NewRNG(0x9A71)
	xs := make([]float64, maxRows*width)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, mode := range []ann.KernelMode{ann.KernelExact, ann.KernelFast, ann.KernelFast32} {
		for _, output := range []int{0, 1} {
			// rows=1 references for every row.
			oneMean := make([]float64, maxRows)
			oneVar := make([]float64, maxRows)
			for r := 0; r < maxRows; r++ {
				x := xs[r*width : (r+1)*width]
				m, v := ens.PredictOutputVarianceBatchKernel(output, x, 1, nil, nil, mode)
				oneMean[r], oneVar[r] = m[0], v[0]
				if v[0] < 0 {
					t.Fatalf("%s output %d row %d: negative variance %v", mode, output, r, v[0])
				}
				if mo := ens.PredictOutputBatchKernel(output, x, 1, nil, mode)[0]; !same(mo, m[0]) {
					t.Fatalf("%s output %d row %d: rows=1 mean-only %v != variance-call mean %v", mode, output, r, mo, m[0])
				}
			}
			if mode == ann.KernelExact {
				refMean, refVar := memberReference(ens, output, xs, maxRows)
				for r := range refMean {
					if !same(oneMean[r], refMean[r]) || !same(oneVar[r], refVar[r]) {
						t.Fatalf("output %d row %d: kernel (%v, %v) != member reference (%v, %v)",
							output, r, oneMean[r], oneVar[r], refMean[r], refVar[r])
					}
				}
			}
			for _, workers := range []int{1, 4} {
				ens.SetWorkers(workers)
				for _, rows := range []int{1, 7, 513, maxRows} {
					batch := xs[:rows*width]
					meanOnly := ens.PredictOutputBatchKernel(output, batch, rows, nil, mode)
					meanBuf, varBuf := make([]float64, rows), make([]float64, rows)
					mean, variance := ens.PredictOutputVarianceBatchKernel(output, batch, rows, meanBuf, varBuf, mode)
					if &mean[0] != &meanBuf[0] || &variance[0] != &varBuf[0] {
						t.Fatalf("%s output %d rows %d: variance call did not return the caller's buffers", mode, output, rows)
					}
					for r := 0; r < rows; r++ {
						if !same(meanOnly[r], oneMean[r]) || !same(mean[r], oneMean[r]) || !same(variance[r], oneVar[r]) {
							t.Fatalf("%s output %d workers %d rows %d row %d: (%v, %v, %v) != rows=1 (%v, %v)",
								mode, output, workers, rows, r, meanOnly[r], mean[r], variance[r], oneMean[r], oneVar[r])
						}
					}
				}
			}
		}
	}
}

// TestPredictBatchWorkersInvariant: sharding a batch across goroutines
// must not change a single bit of the output (rows are independent).
func TestPredictBatchWorkersInvariant(t *testing.T) {
	cfg := fastModel()
	cfg.Seed = 33
	ens, probes := trainSynthEnsemble(t, cfg, 9)
	xs, rows := flatten(probes)

	ens.SetWorkers(1)
	serial := ens.PredictOutputBatchKernel(0, xs, rows, nil, ann.KernelExact)
	for _, w := range []int{2, 4, 8} {
		ens.SetWorkers(w)
		got := ens.PredictOutputBatchKernel(0, xs, rows, nil, ann.KernelExact)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: point %d differs: %v vs %v", w, i, got[i], serial[i])
			}
		}
	}
}

// TestParallelFoldTrainingMatchesSequential is the reproducibility half
// of the parallel-training contract: per-fold RNG seeds are derived
// from the configuration alone, so a fully sequential run (Workers=1)
// and a maximally parallel run must produce identical ensembles —
// identical predictions and identical cross-validation estimates.
func TestParallelFoldTrainingMatchesSequential(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(12)
	train := sp.Sample(rng, 50)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	cfg := fastModel()
	cfg.Seed = 1234

	cfg.Workers = 1
	seq, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Estimate() != par.Estimate() {
		t.Fatalf("estimates differ: sequential %+v vs parallel %+v", seq.Estimate(), par.Estimate())
	}
	for idx := 0; idx < sp.Size(); idx += 7 {
		p := enc.EncodeIndex(idx, nil)
		if a, b := predictOne(seq, p), predictOne(par, p); a != b {
			t.Fatalf("point %d: sequential %v vs parallel %v", idx, a, b)
		}
	}
	if seq.Workers() != 1 || par.Workers() != 8 {
		t.Fatalf("worker bounds not recorded: %d/%d", seq.Workers(), par.Workers())
	}
}

// TestPredictBatchEmptyAndValidation covers the degenerate and error
// paths of the batched API.
func TestPredictBatchEmptyAndValidation(t *testing.T) {
	cfg := fastModel()
	cfg.Seed = 35
	ens, _ := trainSynthEnsemble(t, cfg, 11)
	if out := ens.PredictOutputBatchKernel(0, nil, 0, nil, ann.KernelExact); len(out) != 0 {
		t.Fatalf("empty batch returned %d predictions", len(out))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mis-sized batch did not panic")
		}
	}()
	ens.PredictOutputBatchKernel(0, make([]float64, 3), 2, nil, ann.KernelExact)
}

// TestTrueErrorSkipsZeroTruth pins the held-out evaluation helper the
// cmds share: batched predictions against ground truth, with zero-truth
// points excluded from the statistics (percentage error is undefined)
// and reported via the used count.
func TestTrueErrorSkipsZeroTruth(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, _ := trainSynthEnsemble(t, cfg, 31)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	idxs := []int{0, 5, 10, 15}
	truth := make([]float64, len(idxs))
	for i, idx := range idxs {
		truth[i] = synthTarget(sp, idx)
	}
	truth[2] = 0 // undefined percentage error; must be skipped, not divided by

	mean, sd, used := ens.TrueError(enc, idxs, truth)
	if used != len(idxs)-1 {
		t.Fatalf("used = %d, want %d", used, len(idxs)-1)
	}
	// Reference computation over the non-zero points.
	preds := ens.PredictIndices(enc, idxs)
	var errs []float64
	for i := range idxs {
		if truth[i] == 0 {
			continue
		}
		errs = append(errs, math.Abs(preds[i]-truth[i])/truth[i]*100)
	}
	wantMean, wantSD := stats.MeanStd(errs)
	if mean != wantMean || sd != wantSD {
		t.Fatalf("TrueError = (%v,%v), reference = (%v,%v)", mean, sd, wantMean, wantSD)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("TrueError accepted mismatched idxs/truth lengths")
		}
	}()
	ens.TrueError(enc, idxs, truth[:2])
}
