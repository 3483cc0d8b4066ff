package guide

import (
	"crypto/sha256"
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
// The file is one envelope with one sha256 over the whole payload, so
// corruption anywhere — metadata, an entry's machine name or grid, or any
// model state — is rejected at load. Other formats and versions, such as
// version 1 bundles and the older parcost-advisor files, are refused with a
// FormatError rather than read.
const (
	FleetBundleFormat  = "parcost-fleet"
	FleetBundleVersion = 2
)

// envelope is the on-disk wrapper of a fleet bundle.
type envelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"` // sha256 hex of the payload bytes
	Payload  json.RawMessage `json:"payload"`
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

// fleetPayload is the checksummed content of a bundle's envelope.
type fleetPayload struct {
	Meta    BundleMeta       `json:"meta"`
	Entries []fleetEntryJSON `json:"entries"`
}

type fleetEntryJSON struct {
	Machine string        `json:"machine"`
	Grid    dataset.Grid  `json:"grid"`
	Model   ml.ModelState `json:"model"`
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
	payload := fleetPayload{Meta: meta, Entries: make([]fleetEntryJSON, 0, len(entries))}
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
		payload.Entries = append(payload.Entries, fleetEntryJSON{Machine: e.Machine, Grid: e.Advisor.Grid, Model: model})
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return json.Marshal(envelope{
		Format:   FleetBundleFormat,
		Version:  FleetBundleVersion,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  raw,
	})
}

// DecodeFleet validates a fleet bundle (format, version, payload checksum,
// then every entry: its machine name, its candidate grid — both axes
// positive and strictly increasing — and its model state) and rebuilds its
// advisors in entry order. A bad entry anywhere in the fleet fails the
// whole load: a serve process must not come up answering one machine
// correctly and another from corrupt state.
func DecodeFleet(data []byte) ([]FleetEntry, BundleMeta, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, BundleMeta{}, fmt.Errorf("guide: malformed fleet bundle: %w", err)
	}
	if env.Format != FleetBundleFormat || env.Version != FleetBundleVersion {
		return nil, BundleMeta{}, &FormatError{Format: env.Format, Version: env.Version}
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Checksum {
		return nil, BundleMeta{}, fmt.Errorf("guide: fleet bundle checksum mismatch (corrupt bundle?)")
	}
	var payload fleetPayload
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		return nil, BundleMeta{}, fmt.Errorf("guide: malformed fleet payload: %w", err)
	}
	if len(payload.Entries) == 0 {
		return nil, BundleMeta{}, fmt.Errorf("guide: fleet bundle has no entries")
	}
	entries := make([]FleetEntry, 0, len(payload.Entries))
	seen := make(map[string]bool, len(payload.Entries))
	for _, e := range payload.Entries {
		if err := checkMachine(seen, e.Machine); err != nil {
			return nil, BundleMeta{}, err
		}
		if err := checkGrid(e.Grid); err != nil {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q: %w", e.Machine, err)
		}
		model, err := ml.DecodeModel(e.Model)
		if err != nil {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q: %w", e.Machine, err)
		}
		entries = append(entries, FleetEntry{Machine: e.Machine, Advisor: &Advisor{Model: model, Grid: e.Grid}})
	}
	return entries, payload.Meta, nil
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
