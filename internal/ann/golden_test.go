package ann

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// bitsHash accumulates the exact bit patterns of float64s and ints.
type bitsHash struct{ buf []byte }

func (h *bitsHash) float(vs ...float64) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
	}
}

func (h *bitsHash) int(vs ...int) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	}
}

func (h *bitsHash) sum() string {
	s := sha256.Sum256(h.buf)
	return hex.EncodeToString(s[:])
}

// goldenData builds a deterministic regression set with outputs
// targets per example, all in (0.2, 1.3] so percentage error is well
// defined on the primary one.
func goldenData(n, inputs, outputs int, seed uint64) *Dataset {
	rng := stats.NewRNG(seed)
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, inputs)
		for j := range x {
			x[j] = rng.Float64()
		}
		y := make([]float64, outputs)
		for o := range y {
			v := 0.2 + 0.1*float64(o)
			for j, xj := range x {
				v += 0.6 * xj * xj / float64(j+o+2)
			}
			y[o] = v
		}
		ds.Append(x, y, y[0])
	}
	return ds
}

// TestTrainGoldenBits pins training output to the bit against a
// previous build: for each configuration, a SHA-256 over the bit
// patterns of the TrainResult, the restored best weights, the
// squared errors Train returns over one further pass, and the weights
// after it. Any change to the order or rounding of a floating-point
// operation on the training path changes a digest. The default
// sigmoid/linear net (1 and 3 outputs) runs the production schedule;
// the two-hidden-layer nets cover the remaining activations. (The
// tanh/relu net's init seed is one whose ReLU output does not start
// dead; most seeds leave it stuck at zero, and a net that never
// updates pins nothing.)
func TestTrainGoldenBits(t *testing.T) {
	skipUnlessGoldenArch(t)
	weighted := DefaultTrainOpts()
	weighted.WeightedPresentation = true
	weighted.MaxEpochs = 300
	cases := []struct {
		name   string
		cfg    Config
		opts   TrainOpts
		digest string
	}{
		{
			name: "sigmoid-linear/1-output",
			cfg: Config{Inputs: 6, Hidden: []int{16}, Outputs: 1, HiddenAct: Sigmoid, OutputAct: Linear,
				LearningRate: 0.25, Momentum: 0.5, InitRange: 0.01, Seed: 1},
			opts:   DefaultTrainOpts(),
			digest: "b9cd4c068be6048b0526e72793a6636c09902cd0357b41a1ffc6ffd395d2b12d",
		},
		{
			name: "sigmoid-linear/3-outputs",
			cfg: Config{Inputs: 6, Hidden: []int{16}, Outputs: 3, HiddenAct: Sigmoid, OutputAct: Linear,
				LearningRate: 0.25, Momentum: 0.5, InitRange: 0.01, Seed: 2},
			opts:   DefaultTrainOpts(),
			digest: "f4116077a3d1760a70b57ffe534d67e9fd95be99aef5785454b72d570a05cb13",
		},
		{
			name: "sigmoid-linear/weighted",
			cfg: Config{Inputs: 6, Hidden: []int{16}, Outputs: 1, HiddenAct: Sigmoid, OutputAct: Linear,
				LearningRate: 0.25, Momentum: 0.5, InitRange: 0.01, Seed: 3},
			opts:   weighted,
			digest: "1ec0fa28f1b4461fde29ba6140ce34a644ff7c0dab912f37f4912bd1e0ff27dc",
		},
		{
			name: "tanh-relu/two-hidden",
			cfg: Config{Inputs: 5, Hidden: []int{8, 6}, Outputs: 2, HiddenAct: Tanh, OutputAct: ReLU,
				LearningRate: 0.05, Momentum: 0.5, InitRange: 0.5, Seed: 2},
			opts:   TrainOpts{MaxEpochs: 300, Patience: 60, LRDecay: 0.999, MinImprove: 1e-4},
			digest: "543884a31667e45fb646679c77772549f6838353ab1acb63c6ebfa11e104b498",
		},
		{
			name: "relu-sigmoid/two-hidden",
			cfg: Config{Inputs: 5, Hidden: []int{8, 6}, Outputs: 2, HiddenAct: ReLU, OutputAct: Sigmoid,
				LearningRate: 0.2, Momentum: 0.5, InitRange: 0.5, Seed: 5},
			opts:   TrainOpts{MaxEpochs: 300, Patience: 60, LRDecay: 0.999, MinImprove: 1e-4},
			digest: "0d6b7395fd7f4105ba2a55bc5a14efcb9fd171ddbd97a3493d154576e702f4ee",
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(100 * (i + 1))
			train := goldenData(70, tc.cfg.Inputs, tc.cfg.Outputs, seed)
			es := goldenData(20, tc.cfg.Inputs, tc.cfg.Outputs, seed+1)
			opts := tc.opts
			opts.Seed = seed + 2
			n := New(tc.cfg)
			res, err := TrainEarlyStopping(n, train, es, identityScaler{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			var h bitsHash
			h.int(res.Epochs, res.BestEpoch)
			h.float(res.BestESErr)
			h.float(n.w...)
			for k := range train.X {
				h.float(n.Train(train.X[k], train.Y[k], tc.cfg.LearningRate))
			}
			h.float(n.w...)
			h.float(n.dwPrev...)
			if got := h.sum(); got != tc.digest {
				t.Errorf("training digest %s, want %s (result %+v)", got, tc.digest, res)
			}
		})
	}
}
