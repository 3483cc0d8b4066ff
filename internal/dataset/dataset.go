// Package dataset defines the performance-record schema the paper's models
// are trained on — ⟨O, V, NumNodes, TileSize⟩ → single-iteration wall time —
// together with CSV persistence, splits, and candidate-configuration grids.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"parcost/internal/rng"
	"parcost/internal/stats"
)

// Config is one runtime-parameter configuration: the problem size (number
// of occupied orbitals O and virtual orbitals V) and the execution
// parameters (node count and tensor tile size).
type Config struct {
	O        int
	V        int
	Nodes    int
	TileSize int
}

// NumFeatures is the length of a configuration's feature vector.
const NumFeatures = 4

// Features returns the 4-feature vector the paper's regressors consume.
func (c Config) Features() []float64 {
	return c.AppendFeatures(make([]float64, 0, NumFeatures))
}

// AppendFeatures appends the configuration's feature vector (O, V, nodes,
// tile size) to dst and returns the extended slice.
func (c Config) AppendFeatures(dst []float64) []float64 {
	return append(dst, float64(c.O), float64(c.V), float64(c.Nodes), float64(c.TileSize))
}

// Problem returns the (O, V) problem size of the configuration.
func (c Config) Problem() Problem { return Problem{O: c.O, V: c.V} }

// String renders the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("(O=%d V=%d nodes=%d tile=%d)", c.O, c.V, c.Nodes, c.TileSize)
}

// Problem identifies a molecular problem size.
type Problem struct {
	O, V int
}

// N returns the total number of orbitals O+V.
func (p Problem) N() int { return p.O + p.V }

// String renders the problem size.
func (p Problem) String() string { return fmt.Sprintf("(O=%d, V=%d)", p.O, p.V) }

// Record is one measured (or simulated) experiment.
type Record struct {
	Config  Config
	Seconds float64 // wall time of one CCSD iteration
}

// NodeHours returns the node-hour cost of the record, the Budget Question's
// objective (nodes × seconds / 3600).
func (r Record) NodeHours() float64 {
	return float64(r.Config.Nodes) * r.Seconds / 3600
}

// Dataset is a collection of records from one machine.
type Dataset struct {
	Machine string
	Records []Record
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Features returns the n×4 feature matrix.
func (d *Dataset) Features() [][]float64 {
	x := make([][]float64, len(d.Records))
	for i, r := range d.Records {
		x[i] = r.Config.Features()
	}
	return x
}

// Targets returns the wall-time vector in seconds.
func (d *Dataset) Targets() []float64 {
	y := make([]float64, len(d.Records))
	for i, r := range d.Records {
		y[i] = r.Seconds
	}
	return y
}

// NodeHourTargets returns the node-hours vector (BQ objective).
func (d *Dataset) NodeHourTargets() []float64 {
	y := make([]float64, len(d.Records))
	for i, r := range d.Records {
		y[i] = r.NodeHours()
	}
	return y
}

// Subset returns a new dataset holding the records at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Machine: d.Machine, Records: make([]Record, len(idx))}
	for i, j := range idx {
		out.Records[i] = d.Records[j]
	}
	return out
}

// Split shuffles and partitions the dataset into train and test subsets
// with the given test fraction (the paper uses 25%).
func (d *Dataset) Split(testFrac float64, r *rng.Source) (train, test *Dataset) {
	trIdx, teIdx := stats.TrainTestSplit(len(d.Records), testFrac, r)
	return d.Subset(trIdx), d.Subset(teIdx)
}

// Problems returns the distinct problem sizes present, sorted by (O, V).
func (d *Dataset) Problems() []Problem {
	seen := map[Problem]bool{}
	var out []Problem
	for _, r := range d.Records {
		p := r.Config.Problem()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].O != out[j].O {
			return out[i].O < out[j].O
		}
		return out[i].V < out[j].V
	})
	return out
}

// ForProblem returns the indices of all records with the given problem size.
func (d *Dataset) ForProblem(p Problem) []int {
	var idx []int
	for i, r := range d.Records {
		if r.Config.O == p.O && r.Config.V == p.V {
			idx = append(idx, i)
		}
	}
	return idx
}

// csvHeader is the on-disk column layout.
var csvHeader = []string{"O", "V", "nodes", "tilesize", "seconds"}

// WriteCSV writes the dataset in the canonical five-column layout.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range d.Records {
		row := []string{
			strconv.Itoa(r.Config.O),
			strconv.Itoa(r.Config.V),
			strconv.Itoa(r.Config.Nodes),
			strconv.Itoa(r.Config.TileSize),
			strconv.FormatFloat(r.Seconds, 'g', 17, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the dataset to a file path. Close is checked explicitly:
// a full disk can surface the write failure only at close, and a silently
// truncated dataset would corrupt every run trained from it.
func (d *Dataset) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(machine string, r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("dataset: expected %d columns, got %d", len(csvHeader), len(rows[0]))
	}
	d := &Dataset{Machine: machine}
	for i, row := range rows[1:] {
		var rec Record
		vals := make([]float64, len(row))
		for j, s := range row {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", i+2, j, err)
			}
			vals[j] = v
		}
		rec.Config = Config{O: int(vals[0]), V: int(vals[1]), Nodes: int(vals[2]), TileSize: int(vals[3])}
		rec.Seconds = vals[4]
		if rec.Seconds <= 0 {
			return nil, fmt.Errorf("dataset: row %d has non-positive runtime %g", i+2, rec.Seconds)
		}
		d.Records = append(d.Records, rec)
	}
	return d, nil
}

// LoadCSV reads a dataset from a file path.
func LoadCSV(machine, path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(machine, f)
}

// PaperProblems returns the (O, V) problem sizes that appear in the paper's
// result tables (union of Tables 3–6), representing the molecular systems
// measured on Aurora and Frontier.
func PaperProblems() []Problem {
	return []Problem{
		{44, 260}, {49, 663}, {81, 835}, {85, 698}, {99, 718}, {99, 1021},
		{116, 575}, {116, 840}, {116, 1184}, {134, 523}, {134, 951},
		{134, 1200}, {146, 278}, {146, 591}, {146, 1096}, {146, 1568},
		{180, 720}, {180, 1070}, {196, 764}, {204, 969}, {235, 1007},
		{280, 1040}, {345, 791},
	}
}

// Grid describes the candidate (nodes, tilesize) sweep used both to
// generate training data and to answer STQ/BQ queries (the paper sweeps
// "a range of typical interest").
type Grid struct {
	Nodes     []int
	TileSizes []int
}

// DefaultGrid covers the node counts and tile sizes observed in the
// paper's tables: nodes 5–900, tile sizes 40–180.
func DefaultGrid() Grid {
	return Grid{
		Nodes: []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 65, 70, 75, 80,
			90, 95, 110, 120, 150, 185, 200, 220, 240, 260, 300, 320, 350,
			400, 500, 600, 700, 800, 900},
		TileSizes: []int{40, 50, 60, 70, 73, 80, 90, 100, 110, 120, 130, 140, 150, 160, 180},
	}
}

// Configs expands the grid for one problem size.
func (g Grid) Configs(p Problem) []Config {
	out := make([]Config, 0, len(g.Nodes)*len(g.TileSizes))
	for _, n := range g.Nodes {
		for _, t := range g.TileSizes {
			out = append(out, Config{O: p.O, V: p.V, Nodes: n, TileSize: t})
		}
	}
	return out
}

// Size returns the number of configurations per problem.
func (g Grid) Size() int { return len(g.Nodes) * len(g.TileSizes) }

// GridFromDataset builds the candidate grid from the distinct node counts
// and tile sizes observed in a dataset. This keeps STQ/BQ recommendations
// within the explored configuration space, rather than extrapolating to
// node/tile values the model never trained on.
func GridFromDataset(d *Dataset) Grid {
	nodeSet := map[int]bool{}
	tileSet := map[int]bool{}
	for _, r := range d.Records {
		nodeSet[r.Config.Nodes] = true
		tileSet[r.Config.TileSize] = true
	}
	nodes := make([]int, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	tiles := make([]int, 0, len(tileSet))
	for t := range tileSet {
		tiles = append(tiles, t)
	}
	sort.Ints(nodes)
	sort.Ints(tiles)
	return Grid{Nodes: nodes, TileSizes: tiles}
}
