package guide

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"parcost/internal/dataset"
	"parcost/internal/ml"
)

// A fleet bundle is the one guide artifact format. It holds everything
// query time needs — per machine, the candidate grid and the fitted model's
// state — so `parcost train` can fit once and `parcost stq/bq/serve/retrain`
// answer queries without the dataset or a refit. `train -machines a,b`
// writes one entry per machine and `train -machine a` a one-entry fleet.
//
// The file is a one-line JSON header — format, version and the sha256 of
// everything after the line — followed by the body:
//
//	index    uvarint length, then JSON {meta, entries: [{machine, grid, kind}]}
//	states   per index entry, in order: uvarint length, then the entry
//	         model's state bytes (ml.ModelState.State)
//
// The one checksum over the body rejects corruption anywhere — metadata, an
// entry's machine name or grid, or any model state — at load. Tree models
// store their node arrays as binary tree blocks (tree.AppendState), so a
// load parses the index as JSON and nothing else of a GB as text. Other
// formats and versions are refused with a FormatError rather than read:
// version 1 and 2 bundles and the older parcost-advisor files are each one
// JSON envelope whose format and version the header reader finds in the
// same place.
const (
	FleetBundleFormat  = "parcost-fleet"
	FleetBundleVersion = 3
)

// bundleHeader is the first line of a fleet bundle.
type bundleHeader struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	Checksum string `json:"checksum"` // sha256 hex of the body
}

// BundleMeta is the shared, informational metadata stored beside a bundle's
// entries: when the fleet was trained and where its datasets came from.
// It does not affect serving; provenance that DOES (each shard's candidate
// grid and machine name) lives in the entries.
type BundleMeta struct {
	TrainedAt string `json:"trained_at,omitempty"` // RFC3339
	Source    string `json:"source,omitempty"`     // dataset/grid provenance, e.g. "simulated seed=1"
}

// FleetEntry pairs a machine name with its fitted advisor.
type FleetEntry struct {
	Machine string
	Advisor *Advisor
}

// fleetIndex is the JSON section at the front of a bundle's body: the
// metadata and, per entry, everything but the model state.
type fleetIndex struct {
	Meta    BundleMeta   `json:"meta"`
	Entries []indexEntry `json:"entries"`
}

type indexEntry struct {
	Machine string       `json:"machine"`
	Grid    dataset.Grid `json:"grid"`
	Kind    string       `json:"kind"` // the model's ml.ModelState kind
}

// FormatError reports an artifact this reader does not decode: another
// format, or another version of the fleet bundle.
type FormatError struct {
	Format  string
	Version int
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("guide: artifact format %q version %d not supported (reader handles %q version %d); re-run `parcost train` to rewrite it",
		e.Format, e.Version, FleetBundleFormat, FleetBundleVersion)
}

// checkMachine rejects an empty machine name or one already in seen, and
// records it.
func checkMachine(seen map[string]bool, name string) error {
	if name == "" {
		return fmt.Errorf("guide: bundle entry with empty machine name")
	}
	if seen[name] {
		return fmt.Errorf("guide: duplicate bundle entry for machine %q", name)
	}
	seen[name] = true
	return nil
}

// checkGrid rejects a candidate grid that Recommend cannot sweep in its
// documented order: an empty axis, a node count or tile size ≤ 0, or an
// axis that is not strictly increasing.
func checkGrid(g dataset.Grid) error {
	for _, axis := range []struct {
		name string
		xs   []int
	}{{"node counts", g.Nodes}, {"tile sizes", g.TileSizes}} {
		if len(axis.xs) == 0 {
			return fmt.Errorf("candidate grid has no %s", axis.name)
		}
		for i, x := range axis.xs {
			if x <= 0 {
				return fmt.Errorf("candidate grid has %s %d ≤ 0", axis.name, x)
			}
			if i > 0 && x <= axis.xs[i-1] {
				return fmt.Errorf("candidate grid %s are not strictly increasing (%d after %d)", axis.name, x, axis.xs[i-1])
			}
		}
	}
	return nil
}

// EncodeBundle captures a fleet of fitted advisors into bundle bytes. Every
// entry needs a unique, non-empty machine name, a candidate grid DecodeFleet
// accepts and a snapshot-capable model.
func EncodeBundle(entries []FleetEntry, meta BundleMeta) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("guide: EncodeBundle requires at least one entry")
	}
	index := fleetIndex{Meta: meta, Entries: make([]indexEntry, 0, len(entries))}
	states := make([][]byte, 0, len(entries))
	size := 0
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if err := checkMachine(seen, e.Machine); err != nil {
			return nil, err
		}
		if e.Advisor == nil || e.Advisor.Model == nil {
			return nil, fmt.Errorf("guide: bundle entry %q has no fitted advisor", e.Machine)
		}
		if err := checkGrid(e.Advisor.Grid); err != nil {
			return nil, fmt.Errorf("guide: bundle entry %q: %w", e.Machine, err)
		}
		model, err := ml.EncodeModel(e.Advisor.Model)
		if err != nil {
			return nil, fmt.Errorf("guide: encoding bundle entry %q: %w", e.Machine, err)
		}
		index.Entries = append(index.Entries, indexEntry{Machine: e.Machine, Grid: e.Advisor.Grid, Kind: model.Kind})
		states = append(states, model.State)
		size += binary.MaxVarintLen64 + len(model.State)
	}
	idx, err := json.Marshal(index)
	if err != nil {
		return nil, err
	}
	body := appendSection(make([]byte, 0, binary.MaxVarintLen64+len(idx)+size), idx)
	for _, st := range states {
		body = appendSection(body, st)
	}
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(bundleHeader{
		Format:   FleetBundleFormat,
		Version:  FleetBundleVersion,
		Checksum: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(hdr)+1+len(body))
	return append(append(append(out, hdr...), '\n'), body...), nil
}

// appendSection appends sec to b, prefixed by its length as a uvarint.
func appendSection(b, sec []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(sec))), sec...)
}

// readSection splits the length-prefixed section at the front of b from the
// bytes after it, refusing a length that overruns b.
func readSection(b []byte) (sec, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, fmt.Errorf("section length overruns the %d bytes left", len(b))
	}
	end := k + int(n)
	return b[k:end:end], b[end:], nil
}

// readHeader checks a bundle's header line — format, version, then the
// checksum over the rest — and returns the body after it. The header is the
// file's first JSON value, so a version 1 or 2 bundle or a parcost-advisor
// file, each one JSON envelope, yields its own format and version here and
// is refused with a FormatError.
func readHeader(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var h bundleHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("guide: malformed fleet bundle: %w", err)
	}
	if h.Format != FleetBundleFormat || h.Version != FleetBundleVersion {
		return nil, &FormatError{Format: h.Format, Version: h.Version}
	}
	off := int(dec.InputOffset())
	if off >= len(data) || data[off] != '\n' {
		return nil, fmt.Errorf("guide: malformed fleet bundle: no newline after the header")
	}
	body := data[off+1:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != h.Checksum {
		return nil, fmt.Errorf("guide: fleet bundle checksum mismatch (corrupt bundle?)")
	}
	return body, nil
}

// DecodeFleet validates a fleet bundle (format, version, body checksum,
// then every entry: its machine name, its candidate grid — both axes
// positive and strictly increasing — and its model state) and rebuilds its
// advisors in entry order. Each model decodes straight from its slice of
// data. A bad entry anywhere in the fleet fails the whole load: a serve
// process must not come up answering one machine correctly and another
// from corrupt state.
func DecodeFleet(data []byte) ([]FleetEntry, BundleMeta, error) {
	body, err := readHeader(data)
	if err != nil {
		return nil, BundleMeta{}, err
	}
	idx, body, err := readSection(body)
	if err != nil {
		return nil, BundleMeta{}, fmt.Errorf("guide: malformed fleet bundle index: %w", err)
	}
	var index fleetIndex
	if err := json.Unmarshal(idx, &index); err != nil {
		return nil, BundleMeta{}, fmt.Errorf("guide: malformed fleet bundle index: %w", err)
	}
	if len(index.Entries) == 0 {
		return nil, BundleMeta{}, fmt.Errorf("guide: fleet bundle has no entries")
	}
	entries := make([]FleetEntry, 0, len(index.Entries))
	seen := make(map[string]bool, len(index.Entries))
	for _, e := range index.Entries {
		if err := checkMachine(seen, e.Machine); err != nil {
			return nil, BundleMeta{}, err
		}
		if err := checkGrid(e.Grid); err != nil {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q: %w", e.Machine, err)
		}
		var state []byte
		if state, body, err = readSection(body); err != nil {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q model state: %w", e.Machine, err)
		}
		model, err := ml.DecodeModel(ml.ModelState{Kind: e.Kind, State: state})
		if err != nil {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q: %w", e.Machine, err)
		}
		entries = append(entries, FleetEntry{Machine: e.Machine, Advisor: &Advisor{Model: model, Grid: e.Grid}})
	}
	if len(body) != 0 {
		return nil, BundleMeta{}, fmt.Errorf("guide: fleet bundle has %d bytes after its last model state", len(body))
	}
	return entries, index.Meta, nil
}

// SaveBundle writes a fleet bundle to a file.
func SaveBundle(path string, entries []FleetEntry, meta BundleMeta) error {
	data, err := EncodeBundle(entries, meta)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFleet reads a fleet bundle from a file.
func LoadFleet(path string) ([]FleetEntry, BundleMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, BundleMeta{}, err
	}
	return DecodeFleet(data)
}

// LoadAdvisor reads a fleet bundle that holds exactly one machine — what
// `parcost train -machine a` writes — and returns its advisor and machine
// name. The query commands and the retrain lineage answer from one model.
func LoadAdvisor(path string) (*Advisor, string, error) {
	entries, _, err := LoadFleet(path)
	if err != nil {
		return nil, "", err
	}
	if len(entries) != 1 {
		return nil, "", fmt.Errorf("guide: %s holds %d machines, want exactly one", path, len(entries))
	}
	return entries[0].Advisor, entries[0].Machine, nil
}
