package ccsd

import (
	"sort"
	"sync"

	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/mat"
	"parcost/internal/rng"
)

// GenConfig controls dataset generation.
type GenConfig struct {
	// Problems are the (O, V) sizes to sweep; defaults to dataset.PaperProblems.
	Problems []dataset.Problem
	// Grid is the (nodes, tilesize) sweep; defaults to dataset.DefaultGrid.
	Grid dataset.Grid
	// TargetSize, if > 0, randomly subsamples the feasible configurations
	// down to approximately this many records (the paper's datasets hold
	// ~2300–2450 rows rather than the full grid).
	TargetSize int
	// Noise enables run-to-run noise in the simulated times.
	Noise bool
	// Seed seeds both subsampling and noise.
	Seed uint64
	// MinSeconds and MaxSeconds bound the "typical use" runtime band: the
	// paper collected configurations of typical interest, not absurdly
	// over-provisioned (sub-second) or under-provisioned (multi-hour) runs.
	// Zero values select sensible defaults matching the paper's table range.
	MinSeconds, MaxSeconds float64
}

// Generate sweeps the CCSD simulator over the configuration grid on the
// given machine, keeping only memory-feasible configurations, and returns a
// dataset with the same schema as the paper's measured data.
//
// Generation is parallelized over configurations; the result is sorted
// deterministically and noise is applied from a single seeded stream so the
// output is reproducible regardless of CPU count.
func Generate(spec machine.Spec, cfg GenConfig) *dataset.Dataset {
	problems := cfg.Problems
	if problems == nil {
		problems = dataset.PaperProblems()
	}
	grid := cfg.Grid
	if grid.Size() == 0 {
		grid = dataset.DefaultGrid()
	}
	minS, maxS := cfg.MinSeconds, cfg.MaxSeconds
	if minS <= 0 {
		minS = 5
	}
	if maxS <= 0 {
		maxS = 1200
	}

	// Enumerate all candidate configs.
	var candidates []dataset.Config
	for _, p := range problems {
		candidates = append(candidates, grid.Configs(p)...)
	}

	// Filter to feasible configs and simulate the (noise-free) mean time in
	// parallel. Noise is applied later from a single deterministic stream.
	type result struct {
		cfg  dataset.Config
		secs float64
		ok   bool
	}
	results := make([]result, len(candidates))
	workers := mat.Workers()
	var wg sync.WaitGroup
	chunk := (len(candidates) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				c := candidates[i]
				secs, err := Seconds(spec, Problem{O: c.O, V: c.V}, c.TileSize, c.Nodes, Options{})
				if err != nil {
					continue
				}
				// Keep only configurations in the typical-use runtime band.
				if secs < minS || secs > maxS {
					continue
				}
				results[i] = result{cfg: c, secs: secs, ok: true}
			}
		}(lo, hi)
	}
	wg.Wait()

	var feasible []result
	for _, r := range results {
		if r.ok {
			feasible = append(feasible, r)
		}
	}

	// Subsample to the target size, if requested.
	base := rng.New(cfg.Seed)
	if cfg.TargetSize > 0 && cfg.TargetSize < len(feasible) {
		idx := base.Sample(len(feasible), cfg.TargetSize)
		sort.Ints(idx)
		sub := make([]result, len(idx))
		for i, j := range idx {
			sub[i] = feasible[j]
		}
		feasible = sub
	}

	// Sort deterministically by configuration so output is reproducible.
	sort.Slice(feasible, func(i, j int) bool {
		a, b := feasible[i].cfg, feasible[j].cfg
		if a.O != b.O {
			return a.O < b.O
		}
		if a.V != b.V {
			return a.V < b.V
		}
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		return a.TileSize < b.TileSize
	})

	// Apply noise from one deterministic stream in sorted order.
	noise := base.Split()
	d := &dataset.Dataset{Machine: spec.Name, Records: make([]dataset.Record, len(feasible))}
	for i, r := range feasible {
		secs := r.secs
		if cfg.Noise && spec.NoiseRel > 0 {
			secs *= noise.NoiseFactor(spec.NoiseRel)
		}
		d.Records[i] = dataset.Record{Config: r.cfg, Seconds: secs}
	}
	return d
}
