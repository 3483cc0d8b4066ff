package guide

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
)

// fleetAdvisors trains one small advisor per machine for bundle tests.
func fleetAdvisors(t *testing.T) []FleetEntry {
	t.Helper()
	var entries []FleetEntry
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		d := trainDataset(spec)
		gb := ensemble.NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 5}, 1)
		adv, err := NewAdvisor(gb, d)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, FleetEntry{Machine: spec.Name, Advisor: adv})
	}
	return entries
}

// TestBundleRoundTrip: a two-machine fleet saves to one file and loads back
// with every shard recommending identically to its in-process advisor.
func TestBundleRoundTrip(t *testing.T) {
	entries := fleetAdvisors(t)
	meta := BundleMeta{TrainedAt: "2026-07-27T00:00:00Z", Source: "simulated seed=1"}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := SaveBundle(path, entries, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if len(loaded) != len(entries) {
		t.Fatalf("loaded %d entries, want %d", len(loaded), len(entries))
	}
	for i, e := range entries {
		if loaded[i].Machine != e.Machine {
			t.Fatalf("entry %d machine %q, want %q (order must be preserved)", i, loaded[i].Machine, e.Machine)
		}
		oracle := NewSimOracle(mustSpec(t, e.Machine))
		for _, obj := range []Objective{ShortestTime, Budget} {
			for _, p := range []dataset.Problem{{O: 146, V: 1096}, {O: 99, V: 718}} {
				want, err := e.Advisor.Recommend(p, obj, oracle)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded[i].Advisor.Recommend(p, obj, oracle)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %v/%v: loaded %+v, in-process %+v", e.Machine, p, obj, got, want)
				}
			}
		}
	}
}

func mustSpec(t *testing.T, name string) machine.Spec {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadFleetSingleAdvisorArtifact pins backward compatibility: a PR 3-era
// single-advisor artifact loads as a one-entry fleet named by its recorded
// machine.
func TestLoadFleetSingleAdvisorArtifact(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	path := filepath.Join(t.TempDir(), "advisor.json")
	if err := SaveAdvisor(path, adv, "aurora"); err != nil {
		t.Fatal(err)
	}
	entries, meta, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Machine != "aurora" {
		t.Fatalf("fleet from single artifact = %+v", entries)
	}
	if meta != (BundleMeta{}) {
		t.Fatalf("single artifact carries no bundle meta, got %+v", meta)
	}
	p := dataset.Problem{O: 146, V: 1096}
	want, err := adv.Recommend(p, ShortestTime, oracle)
	if err != nil {
		t.Fatal(err)
	}
	got, err := entries[0].Advisor.Recommend(p, ShortestTime, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fleet-loaded single advisor diverged: %+v vs %+v", got, want)
	}

	// A fleet bundle also loads through the same entry point.
	bundlePath := filepath.Join(t.TempDir(), "fleet.json")
	if err := SaveBundle(bundlePath, []FleetEntry{{Machine: "aurora", Advisor: adv}}, BundleMeta{}); err != nil {
		t.Fatal(err)
	}
	entries, _, err = LoadFleet(bundlePath)
	if err != nil || len(entries) != 1 {
		t.Fatalf("LoadFleet on a bundle: %v (%d entries)", err, len(entries))
	}
}

// corruptOneEntry rebuilds a valid bundle envelope whose OUTER checksum is
// correct but whose named nested advisor artifact is tampered, isolating the
// per-entry integrity check from the whole-payload one.
func corruptOneEntry(t *testing.T, data []byte, machineName string) []byte {
	t.Helper()
	var b envelope
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var payload fleetPayload
	if err := json.Unmarshal(b.Payload, &payload); err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i, e := range payload.Entries {
		if e.Machine != machineName {
			continue
		}
		// Flip one digit inside the nested advisor's payload (past its own
		// envelope fields so the nested checksum is what catches it).
		s := string(e.Advisor)
		idx := strings.LastIndexAny(s, "0123456789")
		if idx < 0 {
			t.Fatal("no digit to tamper in nested advisor")
		}
		flipped := byte('0' + (s[idx]-'0'+1)%10)
		payload.Entries[i].Advisor = json.RawMessage(s[:idx] + string(flipped) + s[idx+1:])
		tampered = true
	}
	if !tampered {
		t.Fatalf("no entry for %q to tamper", machineName)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	out, err := json.Marshal(envelope{
		Format: b.Format, Version: b.Version,
		Checksum: hex.EncodeToString(sum[:]), Payload: raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBundleRejections is the integrity acceptance criterion: corrupted
// bundle entries — in ANY shard — are rejected at load, as are malformed,
// truncated, wrong-format, wrong-version, and duplicate-machine bundles.
func TestBundleRejections(t *testing.T) {
	entries := fleetAdvisors(t)
	data, err := EncodeBundle(entries, BundleMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBundle(data); err != nil {
		t.Fatalf("control bundle failed: %v", err)
	}

	if _, _, err := DecodeBundle([]byte("not json")); err == nil {
		t.Fatal("malformed bundle accepted")
	}
	if _, _, err := DecodeBundle(data[:len(data)/2]); err == nil {
		t.Fatal("truncated bundle accepted")
	}

	// Whole-payload tamper: outer checksum catches it.
	wholeTamper := []byte(strings.Replace(string(data), "aurora", "borealis", 1))
	if string(wholeTamper) == string(data) {
		t.Fatal("tamper target not found")
	}
	if _, _, err := DecodeBundle(wholeTamper); err == nil {
		t.Fatal("payload-tampered bundle accepted")
	}

	// Per-entry tamper with a RECOMPUTED outer checksum: the nested advisor
	// checksum must still reject it — for either shard.
	for _, machineName := range []string{"aurora", "frontier"} {
		bad := corruptOneEntry(t, data, machineName)
		if _, _, err := DecodeBundle(bad); err == nil {
			t.Fatalf("bundle with corrupted %q entry accepted", machineName)
		} else if !strings.Contains(err.Error(), machineName) {
			t.Fatalf("corrupt-entry error does not name the shard: %v", err)
		}
	}

	// Envelope-level rejections.
	for name, mutate := range map[string]func(*envelope, *fleetPayload){
		"wrong format":   func(b *envelope, p *fleetPayload) { b.Format = "parcost-advisor" },
		"future version": func(b *envelope, p *fleetPayload) { b.Version = 99 },
		"nested format": func(b *envelope, p *fleetPayload) {
			p.AdvisorFormat = "parcost-other"
		},
		"nested version": func(b *envelope, p *fleetPayload) {
			p.AdvisorVersion = 99
		},
		"no entries": func(b *envelope, p *fleetPayload) { p.Entries = nil },
		"duplicate machine": func(b *envelope, p *fleetPayload) {
			p.Entries = append(p.Entries, p.Entries[0])
		},
		"mismatched machine": func(b *envelope, p *fleetPayload) {
			p.Entries[0].Machine = "frontier-two"
		},
	} {
		var b envelope
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		var p fleetPayload
		if err := json.Unmarshal(b.Payload, &p); err != nil {
			t.Fatal(err)
		}
		mutate(&b, &p)
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		b.Checksum = hex.EncodeToString(sum[:])
		b.Payload = raw
		bad, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeBundle(bad); err == nil {
			t.Fatalf("%s bundle accepted", name)
		}
	}

	// Encode-side validation.
	if _, err := EncodeBundle(nil, BundleMeta{}); err == nil {
		t.Fatal("empty fleet encoded")
	}
	if _, err := EncodeBundle([]FleetEntry{{Machine: "", Advisor: entries[0].Advisor}}, BundleMeta{}); err == nil {
		t.Fatal("empty machine name encoded")
	}
	if _, err := EncodeBundle([]FleetEntry{entries[0], entries[0]}, BundleMeta{}); err == nil {
		t.Fatal("duplicate machines encoded")
	}

	// DecodeFleet rejects artifacts of neither format.
	if _, _, err := DecodeFleet([]byte(`{"format":"parcost-mystery","version":1}`)); err == nil {
		t.Fatal("unknown-format artifact accepted by DecodeFleet")
	}
	if _, _, err := DecodeFleet([]byte(`{}`)); err == nil {
		t.Fatal("format-less artifact accepted by DecodeFleet")
	}
}
