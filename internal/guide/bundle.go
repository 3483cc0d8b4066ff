package guide

import (
	"encoding/json"
	"fmt"
	"os"
)

// Fleet bundles hold N named advisor artifacts — machine → advisor — in one
// checksummed envelope, so `parcost train -machines a,b` emits a whole fleet
// in one file and `parcost serve` hosts it from one process. Each entry
// embeds a complete single-advisor artifact (its own format/version/checksum
// envelope), and the bundle adds shared metadata plus a whole-payload
// checksum on top: corruption anywhere — metadata, entry name, or any
// nested advisor — is rejected at load.
const (
	FleetBundleFormat  = "parcost-fleet"
	FleetBundleVersion = 1
)

// BundleMeta is the shared, informational metadata stored beside a bundle's
// entries: when the fleet was trained and where its datasets came from.
// It does not affect serving; provenance that DOES (each shard's candidate
// grid and machine name) lives inside the per-entry advisor artifacts.
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
// AdvisorFormat/AdvisorVersion declare the format of every nested entry so a
// reader can reject a bundle of artifacts it cannot decode before unwrapping
// any of them.
type fleetPayload struct {
	Meta           BundleMeta       `json:"meta"`
	AdvisorFormat  string           `json:"advisor_format"`
	AdvisorVersion int              `json:"advisor_version"`
	Entries        []fleetEntryJSON `json:"entries"`
}

type fleetEntryJSON struct {
	Machine string          `json:"machine"`
	Advisor json.RawMessage `json:"advisor"` // complete parcost-advisor artifact
}

// EncodeBundle captures a fleet of fitted advisors into bundle bytes. Every
// entry needs a unique, non-empty machine name and a snapshot-capable model.
func EncodeBundle(entries []FleetEntry, meta BundleMeta) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("guide: EncodeBundle requires at least one entry")
	}
	payload := fleetPayload{
		Meta:           meta,
		AdvisorFormat:  AdvisorArtifactFormat,
		AdvisorVersion: AdvisorArtifactVersion,
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Machine == "" {
			return nil, fmt.Errorf("guide: bundle entry with empty machine name")
		}
		if seen[e.Machine] {
			return nil, fmt.Errorf("guide: duplicate bundle entry for machine %q", e.Machine)
		}
		seen[e.Machine] = true
		art, err := EncodeAdvisor(e.Advisor, e.Machine)
		if err != nil {
			return nil, fmt.Errorf("guide: encoding bundle entry %q: %w", e.Machine, err)
		}
		payload.Entries = append(payload.Entries, fleetEntryJSON{Machine: e.Machine, Advisor: art})
	}
	return bundleEnvelope.seal(payload)
}

// DecodeBundle validates a fleet bundle (format, version, payload checksum,
// then every nested advisor artifact) and rebuilds its advisors in entry
// order. A corrupted entry anywhere in the fleet fails the whole load: a
// serve process must not come up answering one machine correctly and
// another from corrupt state.
func DecodeBundle(data []byte) ([]FleetEntry, BundleMeta, error) {
	var payload fleetPayload
	if err := bundleEnvelope.decode(data, &payload); err != nil {
		return nil, BundleMeta{}, err
	}
	return payload.fleet()
}

// fleet rebuilds the advisors an opened bundle payload holds.
func (payload *fleetPayload) fleet() ([]FleetEntry, BundleMeta, error) {
	if payload.AdvisorFormat != AdvisorArtifactFormat || payload.AdvisorVersion != AdvisorArtifactVersion {
		return nil, BundleMeta{}, fmt.Errorf("guide: bundle declares nested artifacts %q v%d (reader handles %q v%d)",
			payload.AdvisorFormat, payload.AdvisorVersion, AdvisorArtifactFormat, AdvisorArtifactVersion)
	}
	if len(payload.Entries) == 0 {
		return nil, BundleMeta{}, fmt.Errorf("guide: fleet bundle has no entries")
	}
	entries := make([]FleetEntry, 0, len(payload.Entries))
	seen := make(map[string]bool, len(payload.Entries))
	for _, e := range payload.Entries {
		if e.Machine == "" {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry with empty machine name")
		}
		if seen[e.Machine] {
			return nil, BundleMeta{}, fmt.Errorf("guide: duplicate bundle entry for machine %q", e.Machine)
		}
		seen[e.Machine] = true
		adv, machineName, err := DecodeAdvisor(e.Advisor)
		if err != nil {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q: %w", e.Machine, err)
		}
		if machineName != e.Machine {
			return nil, BundleMeta{}, fmt.Errorf("guide: bundle entry %q wraps an advisor trained for %q",
				e.Machine, machineName)
		}
		entries = append(entries, FleetEntry{Machine: e.Machine, Advisor: adv})
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

// DecodeFleet accepts either artifact generation: a fleet bundle decodes to
// its entries, and a single-advisor artifact (the PR 3 format every
// pre-fleet `parcost train` emitted) decodes to a one-entry fleet named by
// its recorded machine. This is what keeps existing artifacts loading
// unchanged behind the Router.
func DecodeFleet(data []byte) ([]FleetEntry, BundleMeta, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, BundleMeta{}, fmt.Errorf("guide: malformed artifact: %w", err)
	}
	switch env.Format {
	case FleetBundleFormat:
		var payload fleetPayload
		if err := bundleEnvelope.open(&env, &payload); err != nil {
			return nil, BundleMeta{}, err
		}
		return payload.fleet()
	case AdvisorArtifactFormat:
		var payload advisorPayload
		if err := advisorEnvelope.open(&env, &payload); err != nil {
			return nil, BundleMeta{}, err
		}
		adv, machineName, err := payload.advisor()
		if err != nil {
			return nil, BundleMeta{}, err
		}
		return []FleetEntry{{Machine: machineName, Advisor: adv}}, BundleMeta{}, nil
	case "":
		return nil, BundleMeta{}, fmt.Errorf("guide: artifact has no format tag")
	default:
		return nil, BundleMeta{}, fmt.Errorf("guide: artifact format %q is neither %q nor %q",
			env.Format, FleetBundleFormat, AdvisorArtifactFormat)
	}
}

// LoadFleet reads a fleet from a file holding either a fleet bundle or a
// single-advisor artifact (see DecodeFleet).
func LoadFleet(path string) ([]FleetEntry, BundleMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, BundleMeta{}, err
	}
	return DecodeFleet(data)
}
