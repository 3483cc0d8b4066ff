package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parcost/internal/active"
	"parcost/internal/dataset"
	"parcost/internal/ml"
	"parcost/internal/retrain"
)

// runRetrain serves a fleet like `parcost serve` and closes the loop around
// it: per shard, a retrain.Controller watches /v1/observe reports for drift
// against the serving model, acquires fresh measurements (simulated here by
// the machine's oracle), fits and validation-gates a candidate, and
// hot-swaps it into the router — journaling every step so a killed daemon
// resumes mid-cycle without repeating measurements.
func runRetrain(args []string) error {
	fs := flag.NewFlagSet("retrain", flag.ContinueOnError)
	var (
		model    = fs.String("model", "", "trained fleet bundle, one machine or many (required)")
		addr     = fs.String("addr", ":8080", "listen address")
		state    = fs.String("state", "retrain-state", "directory for per-machine journals and promoted artifacts")
		strategy = fs.String("strategy", "rs", "acquisition strategy: rs, us, or qbc")
		batch    = fs.Int("batch", 16, "measurements acquired per retrain cycle")
		window   = fs.Int("drift-window", 32, "observations in the drift window")
		thresh   = fs.Float64("drift-threshold", 0.25, "windowed mean relative error that arms a retrain")
		margin   = fs.Float64("gate-margin", 0.05, "relative held-out RMSE improvement a candidate must show")
		rollback = fs.Int("rollback-window", 16, "post-promotion observations watched before a promotion is final")
		trees    = fs.Int("trees", 750, "candidate GB trees")
		depth    = fs.Int("depth", 10, "candidate GB max depth")
		seed     = fs.Uint64("seed", 1, "RNG seed (acquisition, backoff jitter, base data)")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout on SIGINT/SIGTERM")
	)
	admCfg := admissionFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("-model is required")
	}
	kind, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	if *batch <= 0 || *window <= 0 || *rollback <= 0 {
		return fmt.Errorf("-batch, -drift-window, and -rollback-window must be positive")
	}
	if *thresh <= 0 || *margin <= 0 {
		return fmt.Errorf("-drift-threshold and -gate-margin must be positive")
	}
	if *trees <= 0 || *depth <= 0 {
		return fmt.Errorf("-trees and -depth must be positive")
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain must be positive")
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		return fmt.Errorf("state directory: %w", err)
	}

	adm, err := admCfg()
	if err != nil {
		return err
	}

	// The retrain daemon serves the same /v1 surface as `parcost serve`
	// from the same router: the same overload controls and the same
	// oracle-pruned shards, which promotions and rollbacks keep.
	router, shards, err := loadFleetRouter(*model, adm)
	if err != nil {
		return err
	}
	fleet := retrain.NewFleet()
	for _, sh := range shards {
		// Base rows: the simulated dataset the bundle's advisor family
		// trains on, so a candidate always retains pre-drift coverage.
		d, _, err := loadOrGenerate("", sh.Machine, *seed, defaultGenSize)
		if err != nil {
			return err
		}
		// Acquisition pool: every paper problem swept over the advisor's
		// own candidate grid.
		var pool []dataset.Config
		for _, p := range dataset.PaperProblems() {
			pool = append(pool, sh.Advisor.Grid.Configs(p)...)
		}
		journal := filepath.Join(*state, sh.Machine+".journal")
		ctrl, err := retrain.New(retrain.Config{
			Machine:     sh.Machine,
			Router:      router,
			Measurer:    retrain.SimMeasurer{Oracle: sh.oracle},
			Pool:        pool,
			BaseX:       d.Features(),
			BaseY:       d.Targets(),
			BaseAdvisor: sh.Advisor,
			Fit: func(x [][]float64, y []float64) (ml.Regressor, error) {
				m := buildGB(*trees, *depth, *seed)
				if err := m.Fit(x, y); err != nil {
					return nil, err
				}
				return m, nil
			},
			JournalPath: journal,
			ArtifactDir: *state,
			Strategy:    kind,

			DriftWindow: *window, DriftThreshold: *thresh,
			AcquireBatch:   *batch,
			GateMargin:     *margin,
			RollbackWindow: *rollback,
			Seed:           *seed,
		})
		if err != nil {
			return err
		}
		fleet.Add(sh.Machine, ctrl)
		fmt.Printf("Retrain watch on %s (journal %s)\n", sh.Machine, journal)
	}

	fmt.Printf("Serving fleet %v on %s with closed-loop retraining\n", router.Machines(), *addr)
	return runUntilSignal(*addr, newServeHandler(router, fleet), *drain, fleet.Run, fleet.Close)
}

func parseStrategy(s string) (active.StrategyKind, error) {
	switch s {
	case "rs":
		return active.RandomSampling, nil
	case "us":
		return active.UncertaintySampling, nil
	case "qbc":
		return active.QueryByCommittee, nil
	default:
		return 0, fmt.Errorf("-strategy must be rs, us, or qbc (got %q)", s)
	}
}
