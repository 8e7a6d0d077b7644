package bundle

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/stats"
)

// fastModel keeps checkpoint fixtures quick to train.
func fastModel() core.ModelConfig {
	cfg := core.DefaultModelConfig()
	cfg.Train.MaxEpochs = 120
	cfg.Train.Patience = 25
	return cfg
}

// trainedCheckpoint trains one ensemble on a fixed sample and wraps it
// in a hand-built checkpoint: one completed round, one quarantined
// point, and an exclusion list, standing in for the exploration
// driver's own snapshots.
func trainedCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	sp := testSpace()
	cfg := core.ExploreConfig{
		Model:      fastModel(),
		BatchSize:  15,
		MaxSamples: 30,
		Exclude:    []int{0, 1, 2},
		Seed:       7,
	}
	// Every other point from 3 on: clear of Exclude, spread over the
	// space, and leaving point 4 free to quarantine.
	var idxs []int
	var inputs, targets [][]float64
	enc := encoding.NewEncoder(sp)
	for idx := 3; len(idxs) < cfg.MaxSamples; idx += 2 {
		idxs = append(idxs, idx)
		inputs = append(inputs, enc.EncodeIndex(idx, nil))
		targets = append(targets, []float64{testTarget(sp, idx)})
	}
	ens, err := core.TrainEnsemble(inputs, targets, cfg.RoundModel(len(idxs)))
	if err != nil {
		t.Fatal(err)
	}
	return &Checkpoint{
		Space:   sp,
		Encoder: enc,
		Config:  cfg,
		RNG:     stats.NewRNG(99).State(),
		Indices: idxs,
		Targets: targets,
		Steps: []core.Step{{
			Samples:  len(idxs),
			Fraction: float64(len(idxs)) / float64(sp.Size()),
			Est:      ens.Estimate(),
		}},
		Quarantine: []QuarantinedPoint{{Index: 4, Attempts: 2, Error: "synthetic failure"}},
		Ensemble:   ens,
		Meta:       Meta{Study: "synth", App: "none", Metric: "IPC", TraceLen: 1000},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := trainedCheckpoint(t)
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Indices, cp.Indices) {
		t.Fatal("sampled indices changed across the round trip")
	}
	if !reflect.DeepEqual(got.Targets, cp.Targets) {
		t.Fatal("targets changed across the round trip")
	}
	if got.RNG != cp.RNG {
		t.Fatal("RNG state changed across the round trip")
	}
	if !reflect.DeepEqual(got.Steps, cp.Steps) {
		t.Fatal("step history changed across the round trip")
	}
	if !reflect.DeepEqual(got.Quarantine, cp.Quarantine) {
		t.Fatal("quarantine list changed across the round trip")
	}
	if !reflect.DeepEqual(got.Config, cp.Config) {
		t.Fatal("config changed across the round trip")
	}
	if got.Meta.TraceLen != cp.Meta.TraceLen {
		t.Fatal("meta changed across the round trip")
	}
	// Ensemble weights must survive bit-identically: JSON float64
	// round-trips are exact in Go, so the serialized forms must match.
	var a, b bytes.Buffer
	if err := cp.Ensemble.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Ensemble.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("ensemble weights changed across the round trip")
	}
}

// TestCheckpointLoadsRetiredBatchSize: checkpoints written while
// ann.TrainOpts still carried the mini-batch BatchSize knob load with
// the field ignored, and resume with the same configuration.
func TestCheckpointLoadsRetiredBatchSize(t *testing.T) {
	cp := trainedCheckpoint(t)
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	old := bytes.ReplaceAll(buf.Bytes(), []byte(`"MaxEpochs":`), []byte(`"BatchSize":0,"MaxEpochs":`))
	if bytes.Equal(old, buf.Bytes()) {
		t.Fatal("saved checkpoint has no training options to patch")
	}
	got, err := LoadCheckpoint(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Config, cp.Config) {
		t.Fatalf("config changed loading the retired field: %+v vs %+v", got.Config, cp.Config)
	}
}

func TestCheckpointWriteFileAtomicRoundTrip(t *testing.T) {
	cp := trainedCheckpoint(t)
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Indices, cp.Indices) {
		t.Fatal("file round trip changed the sampled set")
	}
	// Overwriting must go through the temp+rename path and leave a
	// loadable file.
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
}

// corrupt saves cp, applies f to the decoded JSON document, re-encodes
// it and tries to load the result.
func corrupt(t *testing.T, cp *Checkpoint, f func(doc map[string]any)) error {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	f(doc)
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(bytes.NewReader(raw))
	return err
}

func TestCheckpointLoadRejectsCorruption(t *testing.T) {
	cp := trainedCheckpoint(t)
	cases := map[string]func(doc map[string]any){
		"future version":   func(d map[string]any) { d["version"] = CheckpointVersion + 1 },
		"zero rng":         func(d map[string]any) { d["rng"] = []int{0, 0, 0, 0} },
		"truncated target": func(d map[string]any) { d["targets"] = d["targets"].([]any)[:1] },
		"out-of-range sample": func(d map[string]any) {
			idxs := d["indices"].([]any)
			idxs[0] = float64(1 << 30)
		},
		"sampled point also excluded": func(d map[string]any) {
			idxs := d["indices"].([]any)
			idxs[0] = float64(0) // 0 is in the Exclude list
		},
		"quarantined point also sampled": func(d map[string]any) {
			q := d["quarantine"].([]any)
			q[0].(map[string]any)["index"] = d["indices"].([]any)[0]
		},
		"non-finite target": func(d map[string]any) {
			// json.Marshal rejects NaN, so splice the raw token later via
			// a numeric stand-in: an empty vector triggers the same
			// per-point contract check.
			tg := d["targets"].([]any)
			tg[0] = []any{}
		},
		"steps not growing": func(d map[string]any) {
			steps := d["steps"].([]any)
			if len(steps) < 2 {
				s0 := steps[0].(map[string]any)
				dup := map[string]any{}
				for k, v := range s0 {
					dup[k] = v
				}
				steps = append(steps, dup)
			} else {
				steps[1].(map[string]any)["Samples"] = steps[0].(map[string]any)["Samples"]
			}
			d["steps"] = steps
		},
		"rounds without ensemble": func(d map[string]any) { delete(d, "ensemble") },
		"drifted space": func(d map[string]any) {
			// One level of one axis drifts in place (64→96 style): the
			// cardinalities survive but the stored encoding spec no
			// longer matches the rebuilt encoder's ranges.
			params := d["params"].([]any)
			values := params[0].(map[string]any)["Values"].([]any)
			values[len(values)-1] = values[len(values)-1].(float64) * 16
		},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			if err := corrupt(t, cp, f); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
	if math.IsNaN(cp.Targets[0][0]) {
		t.Fatal("sanity: test fixture produced NaN targets")
	}
}
