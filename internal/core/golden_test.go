package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/stats"
)

// skipUnlessGoldenArch skips a golden-bits test where the compiler may
// fuse a multiply and an add into one instruction with one rounding:
// every GOARCH but amd64, and amd64 built for GOAMD64=v3 or above. The
// golden constants were recorded on plain amd64, where each Go
// floating-point operation rounds on its own. (math.Exp's amd64
// assembly picks its FMA path from the CPU, so they also assume an
// AVX+FMA host, as every current x86-64 CI and benchmark machine is.)
func skipUnlessGoldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden training bits are pinned on amd64; the compiler may fuse multiply-adds on %s", runtime.GOARCH)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" && s.Value != "v1" && s.Value != "v2" {
				t.Skipf("golden training bits are pinned on GOAMD64=v1; the compiler fuses multiply-adds at %s", s.Value)
			}
		}
	}
}

// TestTrainEnsembleGoldenEstimate pins the cross-validation estimate of
// a production-configured 10-fold ensemble (DefaultModelConfig, its
// full training schedule) on a small fixed dataset to the bit, and the
// ensemble's exact-kernel prediction on every training point. The
// estimate is the paper's stopping signal: a change to training
// arithmetic that moves it by one ulp fails here, whatever the worker
// count.
func TestTrainEnsembleGoldenEstimate(t *testing.T) {
	skipUnlessGoldenArch(t)
	sp := synthSpace()
	enc := newTestEncoder(sp)
	idx := sp.Sample(stats.NewRNG(31), 60)
	cases := []struct {
		name          string
		outputs       int
		mean, sd      uint64 // math.Float64bits of Estimate.MeanErr / SDErr
		predictionSum uint64 // math.Float64bits of Σ predictions, in row order
	}{
		{"1-output", 1, 0x4021c273a5d8932b, 0x40237da390ceaa68, 0x405391ffb51f7995},
		{"2-outputs", 2, 0x4022592b0a8af63c, 0x4025d7f4d5061570, 0x405393c33887f43c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := make([][]float64, len(idx))
			y := make([][]float64, len(idx))
			for i, p := range idx {
				x[i] = enc.EncodeIndex(p, nil)
				v := synthTarget(sp, p)
				y[i] = []float64{v, 1 / v}[:tc.outputs]
			}
			for _, workers := range []int{1, 2} {
				cfg := DefaultModelConfig()
				cfg.Seed = 17
				cfg.Workers = workers
				ens, err := TrainEnsemble(x, y, cfg)
				if err != nil {
					t.Fatal(err)
				}
				est := ens.Estimate()
				var sum float64
				for _, xi := range x {
					sum += predictOne(ens, xi)
				}
				got := [3]uint64{math.Float64bits(est.MeanErr), math.Float64bits(est.SDErr), math.Float64bits(sum)}
				want := [3]uint64{tc.mean, tc.sd, tc.predictionSum}
				if got != want || est.Points != len(idx) {
					t.Errorf("workers=%d: estimate %+v, prediction sum %v: bits %#x, want %#x",
						workers, est, sum, got, want)
				}
			}
		})
	}
}
