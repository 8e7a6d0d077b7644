package ann

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// identityScaler stands in for the target unscaler in tests where
// targets are already in their natural range.
type identityScaler struct{}

func (identityScaler) Unscale(v float64) float64 { return v }

// makeRegressionData builds a smooth 2-D regression task with targets
// in (0, 1.2] so percentage error is well defined.
func makeRegressionData(n int, seed uint64) *Dataset {
	rng := stats.NewRNG(seed)
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		y := 0.2 + 0.5*a + 0.3*b*b
		ds.Append([]float64{a, b}, []float64{y}, y)
	}
	return ds
}

func TestDatasetSubset(t *testing.T) {
	ds := makeRegressionData(10, 1)
	s := ds.Subset([]int{2, 5, 7})
	if s.Len() != 3 {
		t.Fatalf("subset length %d", s.Len())
	}
	if s.Raw[1] != ds.Raw[5] {
		t.Fatal("subset misaligned")
	}
}

func TestTrainEarlyStoppingLearns(t *testing.T) {
	train := makeRegressionData(300, 2)
	es := makeRegressionData(80, 3)
	cfg := smallConfig(2, 1)
	cfg.LearningRate = 0.2
	n := New(cfg)
	opts := TrainOpts{MaxEpochs: 300, Patience: 40, LRDecay: 0.999, Seed: 4}
	res, err := TrainEarlyStopping(n, train, es, identityScaler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestESErr > 4 {
		t.Fatalf("ES error %v%% after training, want < 4%%", res.BestESErr)
	}
	if res.BestEpoch == 0 || res.Epochs < res.BestEpoch {
		t.Fatalf("inconsistent result: %+v", res)
	}
}

func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	train := makeRegressionData(200, 5)
	es := makeRegressionData(60, 6)
	cfg := smallConfig(2, 1)
	cfg.LearningRate = 0.3
	n := New(cfg)
	opts := TrainOpts{MaxEpochs: 200, Patience: 10, LRDecay: 1, Seed: 7}
	res, err := TrainEarlyStopping(n, train, es, identityScaler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The restored network's ES error must equal the best recorded one.
	got := MeanPercentError(n, es, identityScaler{})
	if math.Abs(got-res.BestESErr) > 1e-9 {
		t.Fatalf("restored ES error %v != best %v", got, res.BestESErr)
	}
}

func TestEarlyStoppingStopsBeforeMaxEpochs(t *testing.T) {
	// On a trivially learnable task with tiny patience, training should
	// halt long before MaxEpochs.
	train := makeRegressionData(100, 8)
	es := makeRegressionData(40, 9)
	cfg := smallConfig(2, 1)
	cfg.LearningRate = 0.3
	n := New(cfg)
	opts := TrainOpts{MaxEpochs: 5000, Patience: 5, LRDecay: 1, Seed: 10}
	res, err := TrainEarlyStopping(n, train, es, identityScaler{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= 5000 {
		t.Fatal("early stopping never triggered")
	}
}

func TestTrainRejectsEmptySets(t *testing.T) {
	n := New(smallConfig(2, 1))
	good := makeRegressionData(20, 11)
	if _, err := TrainEarlyStopping(n, &Dataset{}, good, identityScaler{}, DefaultTrainOpts()); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := TrainEarlyStopping(n, good, &Dataset{}, identityScaler{}, DefaultTrainOpts()); err == nil {
		t.Fatal("empty ES set accepted")
	}
	bad := DefaultTrainOpts()
	bad.MaxEpochs = 0
	if _, err := TrainEarlyStopping(n, good, good, identityScaler{}, bad); err == nil {
		t.Fatal("zero MaxEpochs accepted")
	}
}

func TestWeightedPresentationFavorsSmallTargets(t *testing.T) {
	// Two clusters: tiny targets (0.05) and large ones (1.0). With
	// presentation ∝ 1/target, the tiny-target cluster receives ~20×
	// the presentations and should end with much lower percentage
	// error than under uniform presentation.
	build := func(weighted bool) float64 {
		ds := &Dataset{}
		rng := stats.NewRNG(12)
		for i := 0; i < 200; i++ {
			x := rng.Float64()
			var y float64
			if i%2 == 0 {
				y = 0.05 + 0.01*x
			} else {
				y = 1.0 + 0.2*x
			}
			ds.Append([]float64{x, float64(i % 2)}, []float64{y}, y)
		}
		es := ds.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7})
		cfg := smallConfig(2, 1)
		cfg.LearningRate = 0.05
		cfg.Seed = 14
		n := New(cfg)
		opts := TrainOpts{MaxEpochs: 150, Patience: 150, LRDecay: 1,
			WeightedPresentation: weighted, Seed: 15}
		if _, err := TrainEarlyStopping(n, ds, es, identityScaler{}, opts); err != nil {
			t.Fatal(err)
		}
		// Percentage error on the tiny-target half only.
		var sum float64
		count := 0
		for i := 0; i < ds.Len(); i += 2 {
			pred := n.forward(ds.X[i])[0]
			sum += math.Abs(pred-ds.Raw[i]) / ds.Raw[i] * 100
			count++
		}
		return sum / float64(count)
	}
	weighted := build(true)
	uniform := build(false)
	if weighted >= uniform {
		t.Fatalf("1/target presentation did not help small targets: weighted %v%% vs uniform %v%%",
			weighted, uniform)
	}
}

func TestMeanPercentErrorSkipsZeroTargets(t *testing.T) {
	n := New(smallConfig(1, 1))
	ds := &Dataset{}
	ds.Append([]float64{0.5}, []float64{0}, 0) // must be skipped
	ds.Append([]float64{0.5}, []float64{1}, 1)
	got := MeanPercentError(n, ds, identityScaler{})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero target not skipped: %v", got)
	}
	if len(PercentErrors(n, ds, identityScaler{})) != 1 {
		t.Fatal("PercentErrors should skip the zero-target example")
	}
}

func TestTrainOptsPresets(t *testing.T) {
	d := DefaultTrainOpts()
	if d.MaxEpochs <= 0 || d.Patience <= 0 {
		t.Fatal("default opts degenerate")
	}
	p := PaperTrainOpts()
	if !p.WeightedPresentation || p.LRDecay != 1 {
		t.Fatal("paper opts must use weighted presentation at constant rate")
	}
}
