// Simpoint_combo: combine ANN modeling with SimPoint (§5.3). The model
// trains on cheap, noisy SimPoint estimates instead of full
// simulations; accuracy is then measured against full simulation. This
// is the experiment behind Figures 5.4–5.7, shown here end to end for
// one application, including the instruction-reduction arithmetic.
//
// Run: go run ./examples/simpoint_combo [-app mcf]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/simpoint"
	"repro/internal/stats"
	"repro/internal/studies"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "mcf", "application to study")
	samples := flag.Int("samples", 400, "design points evaluated with SimPoint")
	traceLen := flag.Int("insts", 30000, "instructions per full simulation")
	check := flag.Int("check", 150, "full simulations used to measure true error")
	flag.Parse()

	study := studies.Processor()
	tr := workload.Get(*app, *traceLen)

	// SimPoint offline phase: phases → representative intervals.
	plan, err := simpoint.BuildPlan(tr, simpoint.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SimPoint analysis of %s (%d instructions):\n", *app, tr.Len())
	fmt.Printf("  %d intervals of %d instructions, %d clusters\n",
		plan.NumIntervals, plan.IntervalLen, plan.K)
	fmt.Printf("  chosen points: %d → %d detailed instructions per estimate (%.1fx fewer)\n\n",
		len(plan.Points), plan.InstructionsPerEstimate(),
		float64(tr.Len())/float64(plan.InstructionsPerEstimate()))

	// Train the ensemble on SimPoint estimates only.
	spOracle, err := experiments.NewSimPointOracle(study, *app, *traceLen, simpoint.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultExploreConfig()
	cfg.MaxSamples = *samples
	cfg.TargetMeanErr = 0
	cfg.Seed = 5
	ex, err := explore.New(study.Space, spOracle, explore.Config{ExploreConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	ens, err := ex.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	est := ens.Estimate()
	fmt.Printf("model trained on %d SimPoint estimates\n", spOracle.SimulationsRun())
	fmt.Printf("cross-validation estimate (vs SimPoint targets): %.2f%% ± %.2f%%\n",
		est.MeanErr, est.SDErr)

	// True error requires full simulations of held-out points.
	fullOracle := experiments.NewSimOracle(study, *app, *traceLen, experiments.IPCOnly)
	rng := stats.NewRNG(8)
	sampled := map[int]bool{}
	for _, i := range ex.Samples() {
		sampled[i] = true
	}
	var evalIdx []int
	for len(evalIdx) < *check {
		i := rng.Intn(study.Space.Size())
		if !sampled[i] {
			sampled[i] = true
			evalIdx = append(evalIdx, i)
		}
	}
	truth, err := fullOracle.IPCs(evalIdx)
	if err != nil {
		log.Fatal(err)
	}
	enc := ex.Encoder()
	var errs []float64
	for i, pred := range ens.PredictIndices(enc, evalIdx) {
		errs = append(errs, 100*abs(pred-truth[i])/truth[i])
	}
	mean, sd := stats.MeanStd(errs)
	fmt.Printf("true error vs full simulation:                   %.2f%% ± %.2f%%\n", mean, sd)
	fmt.Println("(the gap is SimPoint's own noise — the CV estimate cannot see it, §5.3)")

	// Figure 5.6-style arithmetic for this run.
	space := float64(study.Space.Size())
	annFactor := space / float64(*samples)
	spFactor := float64(tr.Len()) / float64(plan.InstructionsPerEstimate())
	fmt.Printf("\nreduction in simulated instructions vs exhaustive full simulation:\n")
	fmt.Printf("  ANN alone:       %6.0fx  (%d points instead of %d)\n", annFactor, *samples, study.Space.Size())
	fmt.Printf("  SimPoint alone:  %6.1fx  (per-simulation interval sampling)\n", spFactor)
	fmt.Printf("  combined:        %6.0fx\n", annFactor*spFactor)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
