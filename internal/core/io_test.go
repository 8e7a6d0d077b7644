package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/stats"
)

func trainedTestEnsemble(t *testing.T, outputs int) (*Ensemble, [][]float64) {
	t.Helper()
	sp := synthSpace()
	rng := stats.NewRNG(41)
	train := sp.Sample(rng, 50)
	enc := newTestEncoder(sp)
	x := make([][]float64, len(train))
	y := make([][]float64, len(train))
	for i, idx := range train {
		x[i] = enc.EncodeIndex(idx, nil)
		v := synthTarget(sp, idx)
		row := make([]float64, outputs)
		for o := range row {
			row[o] = v / float64(o+1)
		}
		y[i] = row
	}
	cfg := fastModel()
	cfg.Train.MaxEpochs = 60
	cfg.Train.Patience = 15
	ens, err := TrainEnsemble(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ens, x
}

func TestEnsembleSaveLoadRoundTrip(t *testing.T) {
	ens, x := trainedTestEnsemble(t, 1)
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Members() != ens.Members() || loaded.Outputs() != ens.Outputs() {
		t.Fatal("shape not preserved")
	}
	if loaded.Estimate() != ens.Estimate() {
		t.Fatal("estimate not preserved")
	}
	for _, xi := range x[:10] {
		if got, want := predictOne(loaded, xi), predictOne(ens, xi); got != want {
			t.Fatalf("loaded ensemble predicts %v, original %v", got, want)
		}
	}
}

func TestEnsembleSaveLoadMultiOutput(t *testing.T) {
	ens, x := trainedTestEnsemble(t, 3)
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < ens.Outputs(); o++ {
		a := ens.PredictOutputBatchKernel(o, x[0], 1, nil, ann.KernelExact)[0]
		b := loaded.PredictOutputBatchKernel(o, x[0], 1, nil, ann.KernelExact)[0]
		if a != b {
			t.Fatalf("output %d differs after round trip", o)
		}
	}
}

func TestLoadEnsembleRejectsGarbage(t *testing.T) {
	if _, err := LoadEnsemble(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadEnsemble(strings.NewReader(`{"version":99,"outputs":1,"nets":[{}]}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadEnsemble(strings.NewReader(`{"version":1,"outputs":1,"scalers":[{"Lo":0,"Hi":1}],"nets":[]}`)); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}

func TestSensitivityRanksInfluentialAxis(t *testing.T) {
	// synthTarget moves most strongly along axis "a" (0.3·log2 over
	// 1..8 = ±0.9) and the nominal "mode" multiplier; axis "c" spans
	// only ±0.1·b·1.0. Sensitivity must rank "a" above "c".
	ens, _ := trainedTestEnsemble(t, 1)
	sp := synthSpace()
	sens := Sensitivity(ens, sp, 16, 3)
	if len(sens) != sp.NumParams() {
		t.Fatalf("%d sensitivities for %d axes", len(sens), sp.NumParams())
	}
	byName := map[string]AxisSensitivity{}
	for _, s := range sens {
		if s.MeanSwing < 0 || s.MaxSwing < s.MeanSwing {
			t.Fatalf("inconsistent swing stats %+v", s)
		}
		byName[s.Name] = s
	}
	if byName["a"].Rank > byName["c"].Rank {
		t.Fatalf("axis a (rank %d) should outrank axis c (rank %d)",
			byName["a"].Rank, byName["c"].Rank)
	}
	ranked := RankedSensitivities(sens)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Rank != ranked[i-1].Rank+1 {
			t.Fatal("ranking not consecutive")
		}
	}
}
