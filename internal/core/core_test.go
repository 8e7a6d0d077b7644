package core

import (
	"math"
	"testing"

	"repro/internal/ann"
	"repro/internal/encoding"
	"repro/internal/space"
	"repro/internal/stats"
)

// synthSpace is a small analytic design space for model tests: three
// cardinal axes and one nominal axis.
func synthSpace() *space.Space {
	return space.New("synth", []space.Param{
		{Name: "a", Kind: space.Cardinal, Values: []float64{1, 2, 4, 8}},
		{Name: "b", Kind: space.Cardinal, Values: []float64{1, 2, 3, 4, 5}},
		{Name: "c", Kind: space.Continuous, Values: []float64{0.5, 1.0, 1.5}},
		{Name: "mode", Kind: space.Nominal, Levels: []string{"x", "y"}},
	})
}

// synthTarget is a smooth positive function of a design point,
// standing in for simulated IPC.
func synthTarget(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	a := sp.Value(c, 0)
	b := sp.Value(c, 1)
	f := sp.Value(c, 2)
	v := 0.4 + 0.3*math.Log2(a) + 0.1*b*f
	if sp.LevelName(c, 3) == "y" {
		v *= 1.25
	}
	return v
}

// newTestEncoder centralizes encoder construction for core tests.
func newTestEncoder(sp *space.Space) *encoding.Encoder {
	return encoding.NewEncoder(sp)
}

func fastModel() ModelConfig {
	cfg := DefaultModelConfig()
	cfg.Train.MaxEpochs = 500
	cfg.Train.Patience = 80
	return cfg
}

func TestModelConfigValidate(t *testing.T) {
	good := DefaultModelConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Folds = 2
	if bad.Validate() == nil {
		t.Fatal("2 folds accepted (needs train/ES/test)")
	}
	bad = good
	bad.Hidden = nil
	if bad.Validate() == nil {
		t.Fatal("no hidden layers accepted")
	}
	bad = good
	bad.LearningRate = 0
	if bad.Validate() == nil {
		t.Fatal("zero learning rate accepted")
	}
}

func TestExploreConfigValidation(t *testing.T) {
	sp := synthSpace()
	if err := (ExploreConfig{Model: fastModel(), BatchSize: 0, MaxSamples: 10}).Validate(sp); err == nil {
		t.Fatal("zero batch accepted")
	}
	if err := (ExploreConfig{Model: fastModel(), BatchSize: 20, MaxSamples: 10}).Validate(sp); err == nil {
		t.Fatal("MaxSamples below one batch accepted")
	}
}

func TestExploreConfigRejectsOutOfRangeExclude(t *testing.T) {
	sp := synthSpace()
	base := ExploreConfig{Model: fastModel(), BatchSize: 10, MaxSamples: 20}
	for _, bad := range []int{-1, sp.Size(), sp.Size() + 17} {
		cfg := base
		cfg.Exclude = []int{0, bad}
		if err := cfg.Validate(sp); err == nil {
			t.Fatalf("Validate accepted out-of-range Exclude index %d", bad)
		}
	}
	cfg := base
	cfg.Exclude = []int{0, sp.Size() - 1}
	if err := cfg.Validate(sp); err != nil {
		t.Fatalf("Validate rejected valid Exclude indices: %v", err)
	}
}

func TestPaperConfigFaithful(t *testing.T) {
	cfg := PaperConfig()
	if cfg.LearningRate != 0.001 || cfg.Momentum != 0.5 || cfg.InitRange != 0.01 {
		t.Fatal("paper hyperparameters wrong")
	}
	if cfg.Folds != 10 || len(cfg.Hidden) != 1 || cfg.Hidden[0] != 16 {
		t.Fatal("paper architecture wrong")
	}
	if cfg.LogTarget || !cfg.Train.WeightedPresentation {
		t.Fatal("paper config must use linear targets with weighted presentation")
	}
}

func TestTrainEnsembleAccuracyOnSmoothFunction(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(1)
	train := sp.Sample(rng, 80)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	enc := newTestEncoder(sp)
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	ens, err := TrainEnsemble(x, y, fastModel())
	if err != nil {
		t.Fatal(err)
	}
	if ens.Members() != 10 || ens.Outputs() != 1 {
		t.Fatalf("ensemble shape: %d members, %d outputs", ens.Members(), ens.Outputs())
	}
	// True error on the rest of the space.
	all := make([]int, sp.Size())
	for idx := range all {
		all[idx] = idx
	}
	var errs []float64
	for idx, pred := range ens.PredictIndices(enc, all) {
		truth := synthTarget(sp, idx)
		errs = append(errs, math.Abs(pred-truth)/truth*100)
	}
	mean := stats.Mean(errs)
	if mean > 8 {
		t.Fatalf("mean error %v%% on a smooth 4-axis function with 2/3 of the space sampled", mean)
	}
	// The cross-validation estimate must be in the same ballpark.
	est := ens.Estimate()
	if est.MeanErr <= 0 || math.Abs(est.MeanErr-mean) > 6 {
		t.Fatalf("estimate %v%% far from true %v%%", est.MeanErr, mean)
	}
	if est.Points != len(train) {
		t.Fatalf("estimate pooled %d points, want %d", est.Points, len(train))
	}
}

func TestTrainEnsembleInputValidation(t *testing.T) {
	cfg := fastModel()
	x := [][]float64{{1}, {2}}
	if _, err := TrainEnsemble(x, [][]float64{{1}}, cfg); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := TrainEnsemble(x, [][]float64{{1}, {2}}, cfg); err == nil {
		t.Fatal("fewer examples than folds accepted")
	}
	xs := make([][]float64, 12)
	ys := make([][]float64, 12)
	for i := range xs {
		xs[i] = []float64{float64(i)}
		ys[i] = []float64{}
	}
	if _, err := TrainEnsemble(xs, ys, cfg); err == nil {
		t.Fatal("empty target vectors accepted")
	}
}

func TestPredictVariance(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(2)
	train := sp.Sample(rng, 40)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	ens, err := TrainEnsemble(x, y, fastModel())
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := ens.PredictOutputVarianceBatchKernel(0, x[0], 1, nil, nil, ann.KernelExact)
	if variance[0] < 0 {
		t.Fatalf("negative variance %v", variance[0])
	}
	if p := predictOne(ens, x[0]); math.Abs(mean[0]-p) > 1e-9 {
		t.Fatalf("variance-call mean %v != mean-only prediction %v", mean[0], p)
	}
}

func TestMultiTargetEnsemble(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(3)
	train := sp.Sample(rng, 60)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		v := synthTarget(sp, idx)
		y[i] = []float64{v, v * 0.5, 1 / v} // correlated auxiliaries
	}
	ens, err := TrainEnsemble(x, y, fastModel())
	if err != nil {
		t.Fatal(err)
	}
	if ens.Outputs() != 3 {
		t.Fatalf("outputs = %d", ens.Outputs())
	}
	out := make([]float64, ens.Outputs())
	for o := range out {
		out[o] = ens.PredictOutputBatchKernel(o, x[0], 1, nil, ann.KernelExact)[0]
	}
	// Auxiliary predictions should track their definitions loosely.
	if math.Abs(out[1]-out[0]*0.5) > 0.2*out[0] {
		t.Fatalf("auxiliary target 1 inconsistent: %v vs %v", out[1], out[0]*0.5)
	}
}

func TestLogTargetHandlesWideRange(t *testing.T) {
	// Targets spanning two orders of magnitude: log-target training
	// should yield much lower percentage error on the small ones.
	n := 120
	x := make([][]float64, n)
	y := make([][]float64, n)
	rng := stats.NewRNG(4)
	for i := range x {
		v := rng.Float64()
		x[i] = []float64{v}
		y[i] = []float64{0.01 * math.Pow(100, v)} // 0.01..1.0
	}
	run := func(log bool) float64 {
		cfg := fastModel()
		cfg.LogTarget = log
		cfg.Train.WeightedPresentation = false
		ens, err := TrainEnsemble(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var errs []float64
		for i := range x {
			p := predictOne(ens, x[i])
			errs = append(errs, math.Abs(p-y[i][0])/y[i][0]*100)
		}
		return stats.Mean(errs)
	}
	logErr := run(true)
	linErr := run(false)
	if logErr >= linErr {
		t.Fatalf("log targets (%v%%) not better than linear (%v%%) on 100x-range data", logErr, linErr)
	}
}

func TestFoldAssignmentsDisjointAndRotating(t *testing.T) {
	// Verify the Figure 3.3 fold layout property indirectly: with k
	// folds, every member must be trained without ever seeing its test
	// fold. We test by construction: (m+k-2)%k and (m+k-1)%k are
	// distinct for k >= 2 and cover all folds as m varies.
	k := 10
	usedES := map[int]bool{}
	usedTest := map[int]bool{}
	for m := 0; m < k; m++ {
		es := (m + k - 2) % k
		test := (m + k - 1) % k
		if es == test {
			t.Fatalf("member %d: ES fold equals test fold", m)
		}
		usedES[es] = true
		usedTest[test] = true
	}
	if len(usedES) != k || len(usedTest) != k {
		t.Fatal("ES/test folds do not rotate over all folds")
	}
}

func TestEnsembleDeterministicGivenSeed(t *testing.T) {
	sp := synthSpace()
	rng := stats.NewRNG(5)
	train := sp.Sample(rng, 40)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		y[i] = []float64{synthTarget(sp, idx)}
	}
	cfg := fastModel()
	cfg.Seed = 99
	a, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if predictOne(a, x[0]) != predictOne(b, x[0]) {
		t.Fatal("same-seed ensembles predict differently")
	}
	if a.Estimate() != b.Estimate() {
		t.Fatal("same-seed ensembles estimate differently")
	}
}
