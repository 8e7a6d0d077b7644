package explore

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/space"
)

// synthEnergy is a second smooth target so acquisition has a real
// two-metric trade-off to chase.
func synthEnergy(sp *space.Space, idx int) float64 {
	c := sp.Choices(idx)
	return 0.2 + 0.05*sp.Value(c, 0) + 0.1*sp.Value(c, 1)*sp.Value(c, 2)
}

// dualOracle answers [synthTarget, synthEnergy] — an IPC-like metric to
// maximize against an energy-like metric to minimize. Thread-safe; the
// driver fans it out.
type dualOracle struct {
	sp *space.Space
}

func (o *dualOracle) Evaluate(indices []int) ([][]float64, error) {
	out := make([][]float64, len(indices))
	for i, idx := range indices {
		out[i] = []float64{synthTarget(o.sp, idx), synthEnergy(o.sp, idx)}
	}
	return out, nil
}

// acquireCfg is exploreCfg parameterized by an acquisition spec, sized
// for three rounds: one random bootstrap plus two acquisition-driven
// batches.
func acquireCfg(t *testing.T, spec string) core.ExploreConfig {
	t.Helper()
	acq, err := core.ParseAcquireSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exploreCfg(core.SelectRandom)
	cfg.MaxSamples = 45
	cfg.Acquire = acq
	cfg.CandidatePool = 60
	return cfg
}

// acquireSpecs are the strategies the determinism suite pins: every
// acquisition function, including a constrained one.
var acquireSpecs = []string{
	"hvi:max=out0:min=out1",
	"frontier:max=out0:min=out1",
	"variance",
	"hvi:max=out0:min=out1:out0>=0.8",
}

// TestDriverMatchesReferenceUnderAcquisition is the acquisition
// determinism guarantee, mirroring TestDriverMatchesSequentialReference:
// for every strategy and every pipeline setting, the driver reproduces
// the sequential reference loop's exact sample order, step history and
// final ensemble weights.
func TestDriverMatchesReferenceUnderAcquisition(t *testing.T) {
	for _, spec := range acquireSpecs {
		cfg := acquireCfg(t, spec)
		want := sequentialReference(t, dual, cfg)
		for label, pipe := range parityPipelines {
			requireSameRun(t, spec+" "+label, runDriver(t, dual, cfg, pipe), want)
		}
	}
}

// TestKillResumeAcquisitionBitIdentical kills an acquisition-driven run
// after its first completed round and resumes from the checkpoint: the
// acquisition configuration rides in the checkpoint, so the continued
// run must replay the remaining acquisition rounds bit-identically —
// for every strategy.
func TestKillResumeAcquisitionBitIdentical(t *testing.T) {
	for _, spec := range acquireSpecs {
		cfg := acquireCfg(t, spec)
		want := runDriver(t, dual, cfg, Pipeline{Workers: 2})

		path := filepath.Join(t.TempDir(), "run.checkpoint")
		sp := synthSpace()
		ctx, cancel := context.WithCancel(context.Background())
		pipe := Pipeline{Workers: 2, CheckpointPath: path}
		rounds := 0
		pipe.OnStep = func(core.Step) {
			rounds++
			if rounds == 1 {
				cancel() // "kill" before any acquisition-driven round
			}
		}
		d, err := New(sp, &dualOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: pipe})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: killed run returned %v, want context.Canceled", spec, err)
		}

		resumed, err := ResumeFile(path, &dualOracle{sp: synthSpace()}, Pipeline{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		// The checkpoint must carry the acquisition configuration
		// itself; a resume that fell back to random selection would
		// still "run", just wrongly.
		if got := resumed.Checkpoint().Config.Acquire; got == nil || got.Spec() != spec {
			t.Fatalf("%s: checkpoint lost the acquisition config (got %+v)", spec, got)
		}
		if _, err := resumed.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, spec+" kill/resume", stateOf(t, resumed), want)
	}
}

// TestAcquisitionDisablesSpeculation: acquisition needs round N's
// ensemble to select round N+1, so the driver must not speculatively
// simulate ahead — bounded oracle work proves the lockstep.
func TestAcquisitionDisablesSpeculation(t *testing.T) {
	cfg := acquireCfg(t, "hvi:max=out0:min=out1")
	cfg.TargetMeanErr = 1e9 // met after the first round
	sp := synthSpace()
	oracle := &synthOracle{sp: sp}
	d, err := New(sp, oracle, Config{ExploreConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := oracle.evaluations(); got != cfg.BatchSize {
		t.Fatalf("acquisition run simulated %d points before stopping, want exactly one %d-point batch",
			got, cfg.BatchSize)
	}
}
