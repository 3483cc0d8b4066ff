// Command parcost is the user-facing CLI of the library. It trains a
// runtime-prediction model from a dataset and answers the paper's two
// questions for a given problem size:
//
//	parcost stq    -data aurora.csv -machine aurora -o 146 -v 1096
//	parcost bq     -data aurora.csv -machine aurora -o 146 -v 1096
//	parcost predict -data aurora.csv -o 146 -v 1096 -nodes 300 -tile 80
//	parcost eval   -data aurora.csv -machine aurora
//
// Training and query time can be split: `parcost train` fits once and
// writes a versioned fleet bundle, which the query commands load with
// -model and `parcost serve` exposes as a concurrent HTTP JSON service:
//
//	parcost train -data aurora.csv -machine aurora -out aurora.model.json
//	parcost stq   -model aurora.model.json -o 146 -v 1096
//	parcost serve -model aurora.model.json -addr :8080
//
// A whole fleet can train in one run and serve from one process — queries
// route by the "machine" field of the request body:
//
//	parcost train -machines aurora,frontier -out fleet.json
//	parcost serve -model fleet.json -addr :8080 -warmset warm.json
//
// If -data is omitted, the dataset is generated on the fly by the simulator
// for the chosen machine.
package main

import (
	"fmt"
	"os"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/ml"
	"parcost/internal/ml/ensemble"

	// Register every model family's snapshot kind so any bundle decodes,
	// not just the GB models this CLI trains.
	_ "parcost/internal/ml/kernel"
	_ "parcost/internal/ml/linmodel"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "stq":
		err = runQuery(args, guide.ShortestTime)
	case "bq":
		err = runQuery(args, guide.Budget)
	case "predict":
		err = runPredict(args)
	case "eval":
		err = runEval(args)
	case "train":
		err = runTrain(args)
	case "serve":
		err = runServe(args)
	case "retrain":
		err = runRetrain(args)
	case "proxy":
		err = runProxy(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `parcost — CCSD resource estimation

Commands:
  stq      find (nodes, tile) for the shortest execution time
  bq       find (nodes, tile) minimizing node-hours
  predict  predict the iteration time of a specific configuration
  eval     evaluate model accuracy on a held-out split
  train    fit the model once and write a fleet bundle (-out): one
           machine, or -machines a,b for a whole fleet
  serve    serve stq/bq/predict over HTTP from a fleet bundle
           (-model -addr; -warmset pre-sweeps hot keys at startup and saves
           them on graceful shutdown)
  retrain  serve a fleet with closed-loop retraining: drift-watched
           observation ingest (/v1/observe), validation-gated hot-swap
           promotions, automatic rollback (-model -state; crash-safe
           journals resume interrupted cycles)
  proxy    front N serve processes with one fault-tolerant endpoint
           (-backends host1:8081,host2:8082 -hedge-after 95p -retries 2
           -breaker-window 10s; same /v1 API, plus /v1/admin/drain)

Common flags:
  -data <csv>      dataset CSV (default: simulate for -machine)
  -machine <name>  aurora or frontier (default aurora)
  -machines <a,b>  train: comma-separated machine list (fleet bundle)
  -model <file>    one-machine bundle; query without refitting (stq/bq/predict)
  -o, -v           problem size (occupied / virtual orbitals)
  -nodes, -tile    configuration (predict only)
  -trees, -depth   GB hyper-parameters (default 750, 10)
  -seed            RNG seed
`)
}

// defaultGenSize is the simulated-dataset size when -data is omitted,
// matching the paper's collected-measurement count.
const defaultGenSize = 2300

// loadOrGenerate returns the dataset and machine spec for the given flags.
// size bounds the simulated dataset when no CSV is given (defaultGenSize for
// the query commands; `train -gensize` overrides it).
func loadOrGenerate(data, machineName string, seed uint64, size int) (*dataset.Dataset, machine.Spec, error) {
	spec, err := machine.ByName(machineName)
	if err != nil {
		return nil, machine.Spec{}, err
	}
	if data != "" {
		d, err := dataset.LoadCSV(machineName, data)
		return d, spec, err
	}
	d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: size, Noise: true, Seed: seed})
	return d, spec, nil
}

func buildGB(trees, depth int, seed uint64) ml.Regressor {
	return ensemble.NewGradientBoosting(trees, 0.1, treeParams(depth), seed)
}
