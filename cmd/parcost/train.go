package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"parcost/internal/guide"
	"parcost/internal/machine"
)

// now is the command clock; tests substitute a fake to pin TrainedAt stamps.
var now = time.Now

// runTrain fits the paper's GB model and writes the fleet bundle that
// stq/bq/predict/serve/retrain load, splitting training time from query
// time. `-machine a` (default) writes a one-entry fleet; `-machines a,b`
// fits one advisor per machine in a single run, all written into one
// bundle that `serve` hosts behind one endpoint.
func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var (
		data         = fs.String("data", "", "dataset CSV (default: simulate for -machine; single-machine only)")
		machineName  = fs.String("machine", "aurora", "machine (one-entry fleet bundle)")
		machineNames = fs.String("machines", "", "comma-separated machines, e.g. aurora,frontier (one bundle entry each)")
		out          = fs.String("out", "", "output fleet bundle path (required)")
		trees        = fs.Int("trees", 750, "GB estimators")
		depth        = fs.Int("depth", 10, "GB max depth")
		seed         = fs.Uint64("seed", 1, "seed")
		genSize      = fs.Int("gensize", defaultGenSize, "simulated dataset size when -data is omitted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if *trees <= 0 || *depth <= 0 {
		return fmt.Errorf("-trees and -depth must be positive (got trees=%d depth=%d)", *trees, *depth)
	}
	if *genSize <= 0 {
		return fmt.Errorf("-gensize must be positive (got %d)", *genSize)
	}
	names := []string{*machineName}
	if *machineNames != "" {
		// A CSV names one machine's measurements, so it cannot feed a
		// multi-machine fleet; each machine's dataset is simulated. Setting
		// -machine alongside -machines would silently lose, so reject it.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["machine"] {
			return fmt.Errorf("-machine has no effect with -machines; name every machine in -machines")
		}
		if set["data"] {
			return fmt.Errorf("-data is single-machine; fleet training simulates each machine's dataset")
		}
		// Validate EVERY machine name before fitting anything: training is
		// minutes per machine, so a typo in the last name must not waste
		// the fits that came before it.
		names = nil
		seen := map[string]bool{}
		for _, name := range strings.Split(*machineNames, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				return fmt.Errorf("-machines has an empty entry (got %q)", *machineNames)
			}
			if seen[name] {
				return fmt.Errorf("-machines lists %q twice", name)
			}
			seen[name] = true
			if _, err := machine.ByName(name); err != nil {
				return err
			}
			names = append(names, name)
		}
	}
	var entries []guide.FleetEntry
	for _, name := range names {
		d, spec, err := loadOrGenerate(*data, name, *seed, *genSize)
		if err != nil {
			return err
		}
		adv, err := guide.NewAdvisor(buildGB(*trees, *depth, *seed), d)
		if err != nil {
			return err
		}
		entries = append(entries, guide.FleetEntry{Machine: spec.Name, Advisor: adv})
		fmt.Printf("Trained %s on %d %s records (grid %d nodes × %d tiles)\n",
			adv.Model.Name(), d.Len(), spec.Name, len(adv.Grid.Nodes), len(adv.Grid.TileSizes))
	}
	source := fmt.Sprintf("simulated seed=%d trees=%d depth=%d", *seed, *trees, *depth)
	if *data != "" {
		source = fmt.Sprintf("data=%s trees=%d depth=%d", *data, *trees, *depth)
	}
	meta := guide.BundleMeta{TrainedAt: now().UTC().Format(time.RFC3339), Source: source}
	if err := guide.SaveBundle(*out, entries, meta); err != nil {
		return err
	}
	fmt.Printf("Fleet bundle (%s) written to %s\n", strings.Join(names, ","), *out)
	return nil
}
