package explore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
)

// TestKillBetweenRoundsResumeBitIdentical kills a run at a round
// boundary (cancel fired from the OnStep observer) and resumes it from
// the checkpoint file: the continued run must reproduce the
// uninterrupted run's sampled set, step history and final ensemble
// weights bit-identically.
func TestKillBetweenRoundsResumeBitIdentical(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	cfg.MaxSamples = 45 // three rounds
	want := runDriver(t, synth, cfg, Pipeline{Workers: 2})

	path := filepath.Join(t.TempDir(), "run.checkpoint")
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	pipe := Pipeline{Workers: 2, CheckpointPath: path}
	rounds := 0
	pipe.OnStep = func(core.Step) {
		rounds++
		if rounds == 1 {
			cancel() // "kill" after the first completed round
		}
	}
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}

	resumed, err := ResumeFile(path, &synthOracle{sp: synthSpace()}, Pipeline{Workers: 4, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Samples()); got != cfg.BatchSize {
		t.Fatalf("checkpoint carried %d samples, want the first round's %d", got, cfg.BatchSize)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "kill/resume at round boundary", stateOf(t, resumed), want)

	// The checkpoint kept rolling forward during the resumed run: a
	// second resume from the final file must land on the same state
	// with nothing left to do.
	final, err := ResumeFile(path, &synthOracle{sp: synthSpace()}, Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Samples()) != len(want.samples) {
		t.Fatalf("final checkpoint has %d samples, want %d", len(final.Samples()), len(want.samples))
	}
}

// TestKillMidRoundResumeBitIdentical kills the run in the middle of a
// round's oracle fan-out — the worst case: partial results in flight,
// none recorded. Resume must replay the interrupted round from the last
// boundary and still converge to the uninterrupted run bit-identically.
func TestKillMidRoundResumeBitIdentical(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	cfg.MaxSamples = 45
	want := runDriver(t, synth, cfg, Pipeline{Workers: 2})

	path := filepath.Join(t.TempDir(), "run.checkpoint")
	sp := synthSpace()
	ctx, cancel := context.WithCancel(context.Background())
	inner := &synthOracle{sp: sp}
	killing := core.OracleFunc(func(indices []int) ([][]float64, error) {
		// 15 evaluations = round 1 done; die partway through the next
		// fan-out (which may be round 2's speculative flight).
		if inner.evaluations() >= 22 {
			cancel()
			return nil, ctx.Err()
		}
		return inner.Evaluate(indices)
	})
	d, err := New(sp, killing, Config{ExploreConfig: cfg, Pipeline: Pipeline{Workers: 2, CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("killed run returned no error")
	}

	resumed, err := ResumeFile(path, &synthOracle{sp: synthSpace()}, Pipeline{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "kill/resume mid-round", stateOf(t, resumed), want)
	if q := resumed.Quarantined(); len(q) != 0 {
		t.Fatalf("mid-round kill leaked quarantine entries into the resumed run: %v", q)
	}
}

// TestCheckpointCarriesQuarantine verifies quarantined points survive
// the checkpoint round trip and stay out of the resumed run's draws.
func TestCheckpointCarriesQuarantine(t *testing.T) {
	sp := synthSpace()
	bad := func(idx int) bool { return idx%5 == 0 }
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if bad(idx) {
			return fmt.Errorf("permanent failure")
		}
		return nil
	}}
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	cfg := exploreCfg(core.SelectRandom)
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1, CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(d.Quarantined()) == 0 {
		t.Fatal("fixture produced no quarantine")
	}
	cp, err := bundle.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Quarantine) != len(d.Quarantined()) {
		t.Fatalf("checkpoint records %d quarantined points, driver has %d",
			len(cp.Quarantine), len(d.Quarantined()))
	}
	resumed, err := Resume(cp, oracle, Pipeline{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(resumed.Quarantined()), len(cp.Quarantine); got != want {
		t.Fatalf("resume restored %d quarantined points, want %d", got, want)
	}
	// Meta provenance flows checkpoint → resumed driver → new
	// checkpoints by default.
	if cp.Meta.Samples != len(d.Samples()) {
		t.Fatalf("checkpoint meta counts %d samples, driver has %d", cp.Meta.Samples, len(d.Samples()))
	}
}

// TestResumeOfTargetMetRunFinishesImmediately guards the early-stop
// path: finishRound writes the checkpoint before Run's target check, so
// a run that stopped because the error target was met leaves that final
// round's checkpoint on disk. Resuming it must finish without
// simulating another batch.
func TestResumeOfTargetMetRunFinishesImmediately(t *testing.T) {
	cfg := exploreCfg(core.SelectRandom)
	cfg.TargetMeanErr = 1e9 // met after the first round
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	sp := synthSpace()
	d, err := New(sp, &synthOracle{sp: sp}, Config{ExploreConfig: cfg, Pipeline: Pipeline{CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, d)

	oracle := &synthOracle{sp: synthSpace()}
	resumed, err := ResumeFile(path, oracle, Pipeline{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := oracle.evaluations(); got != 0 {
		t.Fatalf("resuming a finished run simulated %d extra points", got)
	}
	requireSameRun(t, "resume of finished run", stateOf(t, resumed), want)
}

// TestStepSkipsTrainingOnFullyQuarantinedBatch guards the durable-curve
// path: a round where every point fails must neither retrain on the
// unchanged pool nor write a step history the checkpoint loader rejects
// as non-growing.
func TestStepSkipsTrainingOnFullyQuarantinedBatch(t *testing.T) {
	sp := synthSpace()
	var failAll bool
	oracle := &synthOracle{sp: sp, fail: func(idx, attempt int) error {
		if failAll {
			return fmt.Errorf("outage")
		}
		return nil
	}}
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	cfg := exploreCfg(core.SelectRandom)
	cfg.MaxSamples = sp.Size()
	d, err := New(sp, oracle, Config{ExploreConfig: cfg, Pipeline: Pipeline{Retries: -1, CheckpointPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Step(ctx, 15); err != nil {
		t.Fatal(err)
	}
	rounds := len(d.Steps())
	failAll = true
	if err := d.Step(ctx, 15); err != nil {
		t.Fatalf("fully-quarantined step must not fail the study: %v", err)
	}
	if got := len(d.Steps()); got != rounds {
		t.Fatalf("quarantined-only round appended a step (%d -> %d)", rounds, got)
	}
	if got := len(d.Quarantined()); got != 15 {
		t.Fatalf("%d points quarantined, want the whole 15-point batch", got)
	}
	// The last written checkpoint must still load and resume.
	failAll = false
	resumed, err := ResumeFile(path, oracle, Pipeline{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Step(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Samples()); got != 25 {
		t.Fatalf("resumed study holds %d samples, want 25", got)
	}
}
