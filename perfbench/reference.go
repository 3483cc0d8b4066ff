package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"

	// Register every model family's artifact kind, as cmd/parcost does.
	_ "parcost/internal/ml/ensemble"
	_ "parcost/internal/ml/kernel"
	_ "parcost/internal/ml/linmodel"
)

// refAnswer is the in-process answer a served one must equal bit for bit,
// plus the simulated time of the configuration it recommends.
type refAnswer struct {
	Nodes       int     `json:"nodes"`
	Tile        int     `json:"tile"`
	PredSeconds float64 `json:"pred_seconds"`
	TrueSeconds float64 `json:"true_seconds"`
}

func (r refAnswer) matches(a answer) bool {
	return a.Nodes == r.Nodes && a.Tile == r.Tile &&
		math.Float64bits(a.PredSeconds) == math.Float64bits(r.PredSeconds)
}

// refMap pairs each query with its reference answer.
func refMap(qs []query, refs []refAnswer) map[query]refAnswer {
	out := make(map[query]refAnswer, len(qs))
	for i, q := range qs {
		out[q] = refs[i]
	}
	return out
}

// inproc is the served bundle loaded into the benchmark process.
type inproc struct {
	advisors map[string]*guide.Advisor
	specs    map[string]machine.Spec
}

func loadInproc(path string) (*inproc, time.Duration, error) {
	start := time.Now()
	entries, _, err := guide.LoadFleet(path)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	ip := &inproc{advisors: map[string]*guide.Advisor{}, specs: map[string]machine.Spec{}}
	for _, e := range entries {
		spec, err := machine.ByName(e.Machine)
		if err != nil {
			return nil, 0, err
		}
		ip.advisors[e.Machine], ip.specs[e.Machine] = e.Advisor, spec
	}
	for _, m := range benchMachines {
		if ip.advisors[m] == nil {
			return nil, 0, fmt.Errorf("bundle %s has no %s entry", path, m)
		}
	}
	return ip, took, nil
}

func objective(s string) guide.Objective {
	if s == "bq" {
		return guide.Budget
	}
	return guide.ShortestTime
}

// references answers every query on workers goroutines with
// Advisor.Recommend on the loaded bundle, pruning with guide.NewSimOracle as
// serve does.
func (ip *inproc) references(qs []query, workers int) ([]refAnswer, error) {
	out := make([]refAnswer, len(qs))
	errs := make([]error, len(qs))
	forEach(len(qs), workers, func(_, i int) {
		q := qs[i]
		oracle := guide.NewSimOracle(ip.specs[q.Machine])
		rec, err := ip.advisors[q.Machine].Recommend(dataset.Problem{O: q.O, V: q.V}, objective(q.Objective), oracle)
		if err != nil {
			errs[i] = err
			return
		}
		truth, ok := oracle.TrueTime(rec.Config)
		if !ok {
			errs[i] = fmt.Errorf("%v: recommended %v has no simulated time", q, rec.Config)
			return
		}
		out[i] = refAnswer{Nodes: rec.Config.Nodes, Tile: rec.Config.TileSize, PredSeconds: rec.PredTime, TrueSeconds: truth}
	})
	return out, errors.Join(errs...)
}

// prepare returns the bundle the serve workloads host and the in-process
// answer to every hot key, building both the first time a checkout needs
// them. The bundle is what `parcost train -machines aurora,frontier -seed 1`
// writes at its defaults: the paper's 750-tree, depth-10 GB fitted on 2300
// simulated rows per machine. Both files are named by a hash of the parcost
// binary, so a rebuilt program never reads another program's files.
func prepare(ctx context.Context, o options, bin string, workers int) (string, map[query]refAnswer, error) {
	sum, err := fileHash(bin)
	if err != nil {
		return "", nil, err
	}
	bundle := filepath.Join(o.out, "fleet-"+sum+".json")
	refPath := filepath.Join(o.out, "hotref-"+sum+".json")
	if _, err := os.Stat(bundle); errors.Is(err, os.ErrNotExist) {
		tmp := bundle + ".tmp"
		cmd := exec.CommandContext(ctx, bin, "train", "-machines", "aurora,frontier", "-seed", "1", "-out", tmp)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", nil, fmt.Errorf("training the served bundle: %w", err)
		}
		if err := os.Rename(tmp, bundle); err != nil {
			return "", nil, err
		}
	} else if err != nil {
		return "", nil, err
	}

	keys := hotKeys()
	if data, err := os.ReadFile(refPath); err == nil {
		var refs []refAnswer
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&refs); err != nil {
			return "", nil, fmt.Errorf("parsing %s: %w", refPath, err)
		}
		if len(refs) != len(keys) {
			return "", nil, fmt.Errorf("%s holds %d answers, want %d", refPath, len(refs), len(keys))
		}
		return bundle, refMap(keys, refs), nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", nil, err
	}
	ip, _, err := loadInproc(bundle)
	if err != nil {
		return "", nil, err
	}
	refs, err := ip.references(keys, workers)
	if err != nil {
		return "", nil, fmt.Errorf("hot-key reference answers: %w", err)
	}
	data, err := json.Marshal(refs)
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(refPath+".tmp", data, 0o644); err != nil {
		return "", nil, err
	}
	return bundle, refMap(keys, refs), os.Rename(refPath+".tmp", refPath)
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
