package core

import (
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

// TestConcurrentPredictSharedEnsemble shares one trained ensemble across
// many goroutines making single-row mean and variance calls. Run under
// `go test -race` this proves the scoring path never touches
// network-owned scratch; the value checks prove concurrency changes no
// bits.
func TestConcurrentPredictSharedEnsemble(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 80
	cfg.Train.Patience = 20
	ens, probes := trainSynthEnsemble(t, cfg, 7)

	// Sequential golden values.
	wantMean := make([]float64, len(probes))
	wantVar := make([]float64, len(probes))
	for i, x := range probes {
		m, v := ens.PredictOutputVarianceBatchKernel(0, x, 1, nil, nil, ann.KernelExact)
		wantMean[i], wantVar[i] = m[0], v[0]
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mean, variance := make([]float64, 1), make([]float64, 1)
			for i, x := range probes {
				if p := predictOne(ens, x); p != wantMean[i] {
					errs <- "mean-only call diverged under concurrency"
					return
				}
				ens.PredictOutputVarianceBatchKernel(0, x, 1, mean, variance, ann.KernelExact)
				if mean[0] != wantMean[i] || variance[0] != wantVar[i] {
					errs <- "variance call diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestConcurrentBatchAndPointPredict mixes batched and single-row calls
// on one shared ensemble, the serving layer's actual access pattern
// (coalesced batches racing ad-hoc single-point queries).
func TestConcurrentBatchAndPointPredict(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, probes := trainSynthEnsemble(t, cfg, 9)
	xs, rows := flatten(probes)
	want := ens.PredictOutputBatchKernel(0, xs, rows, nil, ann.KernelExact)

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := ens.PredictOutputBatchKernel(0, xs, rows, nil, ann.KernelExact)
			for i := range got {
				if got[i] != want[i] {
					errs <- "batched call diverged under concurrency"
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i, x := range probes {
				if p := predictOne(ens, x); p != want[i] {
					errs <- "single-row call disagreed with the batch under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSensitivityDegenerateAxes trains a linear-target model on
// all-negative targets, so every swept minimum is ≤ 0 and no axis can
// measure a percentage swing: axes must be flagged Degenerate rather
// than reported as zero-influence.
func TestSensitivityDegenerateAxes(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(13)
	train := sp.Sample(rng, 50)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{-5 - synthTarget(sp, idx)}
	}
	cfg := fastModel()
	cfg.LogTarget = false // keep targets (and predictions) negative
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Sensitivity(ens, sp, 8, 3) {
		if !s.Degenerate || s.ValidBases != 0 {
			t.Fatalf("axis %s: want degenerate with 0 valid bases, got %+v", s.Name, s)
		}
		if s.Bases != 8 {
			t.Fatalf("axis %s: want 8 bases recorded, got %d", s.Name, s.Bases)
		}
		if s.MeanSwing != 0 {
			t.Fatalf("axis %s: degenerate axis must not carry a swing, got %g", s.Name, s.MeanSwing)
		}
	}
}

// TestSensitivityValidBasesOnHealthyModel pins the non-degenerate path:
// positive predictions keep every base valid.
func TestSensitivityValidBasesOnHealthyModel(t *testing.T) {
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, _ := trainSynthEnsemble(t, cfg, 21)
	for _, s := range Sensitivity(ens, synthSpace(), 8, 3) {
		if s.Degenerate {
			t.Fatalf("axis %s unexpectedly degenerate", s.Name)
		}
		if s.ValidBases != s.Bases {
			t.Fatalf("axis %s: %d/%d valid bases on an all-positive surface", s.Name, s.ValidBases, s.Bases)
		}
	}
}
