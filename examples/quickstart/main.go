// Quickstart: build a predictive model of the memory-system design
// space for one application with ~400 simulations (1.7% of the 23,040-
// point space), then use it to predict IPC everywhere.
//
// This is the paper's core loop (§3.3) end to end:
//
//  1. define the design space            (studies.MemorySystem)
//  2. simulate random batches of points  (experiments.SimOracle)
//  3. train a 10-fold CV ANN ensemble    (explore.Driver)
//  4. read the error estimate the model computes about itself
//  5. predict unsimulated points and check against the simulator
//
// Run: go run ./examples/quickstart [-app mcf] [-samples 400]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/stats"
	"repro/internal/studies"
)

func main() {
	app := flag.String("app", "crafty", "application to model")
	samples := flag.Int("samples", 400, "simulation budget")
	traceLen := flag.Int("insts", 50000, "instructions per simulation")
	check := flag.Int("check", 300, "held-out points to verify against")
	flag.Parse()

	study := studies.MemorySystem()
	fmt.Printf("design space: %s, %d points, %d parameters\n",
		study.Space.Name, study.Space.Size(), study.Space.NumParams())

	oracle := experiments.NewSimOracle(study, *app, *traceLen, experiments.IPCOnly)

	cfg := core.DefaultExploreConfig()
	cfg.MaxSamples = *samples
	cfg.TargetMeanErr = 0 // run the full budget; we stop by sample count
	cfg.Seed = 42

	ex, err := explore.New(study.Space, oracle, explore.Config{ExploreConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntraining on batches of %d simulations of %s:\n", cfg.BatchSize, *app)
	start := time.Now()
	ens, err := ex.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range ex.Steps() {
		fmt.Printf("  %4d sims (%4.2f%% of space): estimated error %5.2f%% ± %5.2f%%  (train %v)\n",
			s.Samples, 100*s.Fraction, s.Est.MeanErr, s.Est.SDErr, s.TrainTime.Round(time.Millisecond))
	}
	fmt.Printf("total: %d simulations, %v\n", oracle.SimulationsRun(), time.Since(start).Round(time.Millisecond))

	// Verify on points the model has never seen.
	rng := stats.NewRNG(7)
	var evalIdx []int
	sampled := map[int]bool{}
	for _, i := range ex.Samples() {
		sampled[i] = true
	}
	for len(evalIdx) < *check {
		i := rng.Intn(study.Space.Size())
		if !sampled[i] {
			sampled[i] = true
			evalIdx = append(evalIdx, i)
		}
	}
	truth, err := oracle.IPCs(evalIdx)
	if err != nil {
		log.Fatal(err)
	}
	enc := ex.Encoder()
	var errs []float64
	preds := ens.PredictIndices(enc, evalIdx)
	for i, pred := range preds {
		errs = append(errs, 100*abs(pred-truth[i])/truth[i])
	}
	mean, sd := stats.MeanStd(errs)
	fmt.Printf("\ntrue error on %d unseen points: %.2f%% ± %.2f%% (p90 %.2f%%)\n",
		len(evalIdx), mean, sd, stats.Percentile(errs, 90))
	fmt.Printf("model self-estimate:            %.2f%% ± %.2f%%\n",
		ens.Estimate().MeanErr, ens.Estimate().SDErr)

	// Show a few example predictions.
	fmt.Println("\nsample predictions (unseen configurations):")
	for i := 0; i < 5 && i < len(evalIdx); i++ {
		fmt.Printf("  point %5d: predicted IPC %.4f, simulated IPC %.4f (%.2f%% error)\n",
			evalIdx[i], preds[i], truth[i], errs[i])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
