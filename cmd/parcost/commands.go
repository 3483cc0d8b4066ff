package main

import (
	"flag"
	"fmt"

	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
	"parcost/internal/stats"
)

func treeParams(depth int) tree.Params {
	return tree.Params{MaxDepth: depth, MinSamplesSplit: 2, MinSamplesLeaf: 1}
}

// queryFlags parses the flags shared by stq/bq/predict/eval.
type queryFlags struct {
	data, machine, model string
	o, v, nodes, tile    int
	trees, depth         int
	seed                 uint64
}

// parseQueryFlags parses and validates the shared query flags. withConfig
// adds -nodes/-tile (predict); needProblem requires a positive -o/-v
// (everything but eval). Zero is the flag default, so "required and
// positive" also rejects accidental `-o 0` queries that would otherwise
// silently sweep a nonsense problem.
func parseQueryFlags(args []string, withConfig, needProblem bool) (*queryFlags, error) {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	qf := &queryFlags{}
	fs.StringVar(&qf.data, "data", "", "dataset CSV")
	fs.StringVar(&qf.machine, "machine", "aurora", "machine")
	fs.StringVar(&qf.model, "model", "", "one-machine fleet bundle (from `parcost train -machine`); skips refitting")
	fs.IntVar(&qf.o, "o", 0, "occupied orbitals")
	fs.IntVar(&qf.v, "v", 0, "virtual orbitals")
	if withConfig {
		fs.IntVar(&qf.nodes, "nodes", 0, "node count")
		fs.IntVar(&qf.tile, "tile", 0, "tile size")
	}
	fs.IntVar(&qf.trees, "trees", 750, "GB estimators")
	fs.IntVar(&qf.depth, "depth", 10, "GB max depth")
	fs.Uint64Var(&qf.seed, "seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if needProblem {
		if qf.o <= 0 || qf.v <= 0 {
			return nil, fmt.Errorf("-o and -v are required and must be positive (got o=%d v=%d)", qf.o, qf.v)
		}
	}
	if withConfig {
		if qf.nodes <= 0 || qf.tile <= 0 {
			return nil, fmt.Errorf("-nodes and -tile are required and must be positive (got nodes=%d tile=%d)", qf.nodes, qf.tile)
		}
	}
	if qf.model != "" {
		// An artifact fixes the training data, machine, and hyper-parameters
		// at train time; silently discarding an explicitly-set flag would
		// hide that the answer comes from the artifact's configuration.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"data", "machine", "trees", "depth", "seed"} {
			if set[name] {
				return nil, fmt.Errorf("-%s has no effect with -model: the artifact fixes it at train time", name)
			}
		}
	} else if qf.trees <= 0 || qf.depth <= 0 {
		return nil, fmt.Errorf("-trees and -depth must be positive (got trees=%d depth=%d)", qf.trees, qf.depth)
	}
	return qf, nil
}

// advisorForQuery returns a ready advisor and the machine spec: either
// loaded from a trained artifact (-model) or fitted in-process from the
// dataset (-data, or simulated). With -model, the artifact's recorded
// machine overrides -machine so oracle pruning matches training provenance.
func advisorForQuery(qf *queryFlags) (*guide.Advisor, machine.Spec, error) {
	if qf.model != "" {
		adv, machineName, err := guide.LoadAdvisor(qf.model)
		if err != nil {
			return nil, machine.Spec{}, err
		}
		spec, err := machine.ByName(machineName)
		if err != nil {
			return nil, machine.Spec{}, fmt.Errorf("artifact machine: %w", err)
		}
		return adv, spec, nil
	}
	d, spec, err := loadOrGenerate(qf.data, qf.machine, qf.seed, defaultGenSize)
	if err != nil {
		return nil, machine.Spec{}, err
	}
	adv, err := guide.NewAdvisor(buildGB(qf.trees, qf.depth, qf.seed), d)
	if err != nil {
		return nil, machine.Spec{}, err
	}
	return adv, spec, nil
}

func runQuery(args []string, obj guide.Objective) error {
	qf, err := parseQueryFlags(args, false, true)
	if err != nil {
		return err
	}
	adv, spec, err := advisorForQuery(qf)
	if err != nil {
		return err
	}
	oracle := guide.NewSimOracle(spec)
	p := dataset.Problem{O: qf.o, V: qf.v}
	rec, err := adv.Recommend(p, obj, oracle)
	if err != nil {
		return err
	}
	fmt.Printf("Problem %v on %s — %s\n", p, spec.Name, obj)
	fmt.Printf("  recommended: nodes=%d tile=%d\n", rec.Config.Nodes, rec.Config.TileSize)
	fmt.Printf("  predicted iteration time: %.2f s\n", rec.PredTime)
	if obj == guide.Budget {
		fmt.Printf("  predicted node-hours:     %.3f\n", rec.PredValue)
	}
	// Show the true optimum for reference (simulator oracle).
	if trueCfg, trueVal, trueTime, ok := guide.OptimalConfig(oracle, adv.Grid, p, obj); ok {
		fmt.Printf("  (simulator optimum: nodes=%d tile=%d, %.2f s", trueCfg.Nodes, trueCfg.TileSize, trueTime)
		if obj == guide.Budget {
			fmt.Printf(", %.3f node-hours", trueVal)
		}
		fmt.Printf(")\n")
	}
	return nil
}

func runPredict(args []string) error {
	qf, err := parseQueryFlags(args, true, true)
	if err != nil {
		return err
	}
	adv, spec, err := advisorForQuery(qf)
	if err != nil {
		return err
	}
	cfg := dataset.Config{O: qf.o, V: qf.v, Nodes: qf.nodes, TileSize: qf.tile}
	pred := adv.Model.Predict([][]float64{cfg.Features()})[0]
	fmt.Printf("Predicted iteration time for %v on %s: %.2f s\n", cfg, spec.Name, pred)
	fmt.Printf("Predicted node-hours: %.3f\n", float64(cfg.Nodes)*pred/3600)
	return nil
}

func runEval(args []string) error {
	qf, err := parseQueryFlags(args, false, false)
	if err != nil {
		return err
	}
	d, spec, err := loadOrGenerate(qf.data, qf.machine, qf.seed, defaultGenSize)
	if err != nil {
		return err
	}
	train, test := d.Split(0.25, rng.New(qf.seed+1))
	model := buildGB(qf.trees, qf.depth, qf.seed)
	if err := model.Fit(train.Features(), train.Targets()); err != nil {
		return err
	}
	sc := stats.Evaluate(test.Targets(), model.Predict(test.Features()))
	fmt.Printf("Model evaluation on %s (%d train / %d test):\n", spec.Name, train.Len(), test.Len())
	fmt.Printf("  R2=%.4f  MAE=%.3f  MAPE=%.4f\n", sc.R2, sc.MAE, sc.MAPE)
	return nil
}
