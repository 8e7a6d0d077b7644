// Processor: run the paper's incremental procedure (§3.3 steps 1–8) on
// the processor design space (Table 4.2) with an error target, exactly
// as the architect-facing workflow is described: keep simulating
// batches of 50 until the model says it is accurate enough, then trust
// the model.
//
// Also demonstrates the multi-task extension (Chapter 7): the same
// ensemble jointly predicts IPC, L2 miss rate and branch mispredict
// rate from shared hidden layers.
//
// Run: go run ./examples/processor [-app mgrid] [-target 2.0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/studies"
)

func main() {
	app := flag.String("app", "mgrid", "application to study")
	target := flag.Float64("target", 2.0, "stop when estimated mean error falls below this %")
	budget := flag.Int("budget", 800, "maximum simulations")
	traceLen := flag.Int("insts", 30000, "instructions per simulation")
	flag.Parse()

	study := studies.Processor()
	oracle := experiments.NewSimOracle(study, *app, *traceLen, experiments.MultiTask)

	cfg := core.DefaultExploreConfig()
	cfg.MaxSamples = *budget
	cfg.TargetMeanErr = *target
	cfg.Seed = 99

	ex, err := explore.New(study.Space, oracle, explore.Config{ExploreConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exploring %s for %s: batches of %d until estimated error < %.1f%%\n\n",
		study.Space.Name, *app, cfg.BatchSize, *target)
	ens, err := ex.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range ex.Steps() {
		fmt.Printf("  %4d sims (%4.2f%%): est %.2f%% ± %.2f%%  (train %v)\n",
			s.Samples, 100*s.Fraction, s.Est.MeanErr, s.Est.SDErr,
			s.TrainTime.Round(time.Millisecond))
	}
	final := ex.Steps()[len(ex.Steps())-1]
	if *target > 0 && final.Est.MeanErr <= *target {
		fmt.Printf("\nreached %.2f%% estimated error with %d simulations (%.2f%% of the space)\n",
			final.Est.MeanErr, final.Samples, 100*final.Fraction)
	} else {
		fmt.Printf("\nbudget exhausted at %.2f%% estimated error\n", final.Est.MeanErr)
	}

	// Multi-task predictions: one forward pass yields all three metrics.
	fmt.Println("\nmulti-task predictions vs simulation on three unseen points:")
	enc := ex.Encoder()
	for _, idx := range []int{137, 9999, 20000} {
		x := enc.EncodeIndex(idx, nil)
		pred := make([]float64, ens.Outputs())
		for o := range pred {
			pred[o] = ens.PredictOutputBatchKernel(o, x, 1, nil, ann.KernelExact)[0]
		}
		r, err := oracle.Result(idx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  point %5d: IPC %.3f/%.3f   L2miss %.3f/%.3f   brMis %.4f/%.4f  (pred/sim)\n",
			idx, pred[0], r.IPC, pred[1], r.L2MissRate, pred[2], r.BrMispredRate)
	}
	// SimulationsRun also counts a speculative batch the driver simulated
	// ahead and discarded once the error target was met.
	fmt.Printf("\ntotal simulations: %d of %d points (%.2f%%), %d trained on\n",
		oracle.SimulationsRun(), study.Space.Size(),
		100*float64(oracle.SimulationsRun())/float64(study.Space.Size()), final.Samples)
}
