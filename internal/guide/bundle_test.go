package guide

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
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
	full := dataset.DefaultGrid()
	for i, e := range entries {
		if loaded[i].Machine != e.Machine {
			t.Fatalf("entry %d machine %q, want %q (order must be preserved)", i, loaded[i].Machine, e.Machine)
		}
		if !reflect.DeepEqual(loaded[i].Advisor.Grid, e.Advisor.Grid) {
			t.Fatalf("%s: grid %+v, want %+v", e.Machine, loaded[i].Advisor.Grid, e.Advisor.Grid)
		}
		// Every paper problem × the full candidate grid predicts bit for bit.
		for _, p := range dataset.PaperProblems() {
			var rows [][]float64
			for _, c := range full.Configs(p) {
				rows = append(rows, c.Features())
			}
			want, got := e.Advisor.Model.Predict(rows), loaded[i].Advisor.Model.Predict(rows)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s %v row %d: loaded predicts %v, in-process %v", e.Machine, p, j, got[j], want[j])
				}
			}
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

// TestLoadFleetSingleAdvisorArtifact pins that older artifact files are
// refused, not read: a parcost-advisor file (one advisor, what `parcost
// train -machine` wrote before fleet bundles became the only format) and a
// version 1 fleet bundle, both written by that older code. Each fails with
// a FormatError naming its format and version and pointing at `parcost
// train`, through LoadFleet and LoadAdvisor alike.
func TestLoadFleetSingleAdvisorArtifact(t *testing.T) {
	for _, tc := range []struct {
		file, format string
		version      int
	}{
		{"advisor_v1.json", "parcost-advisor", 1},
		{"fleet_v1.json", FleetBundleFormat, 1},
	} {
		path := filepath.Join("testdata", tc.file)
		_, _, fleetErr := LoadFleet(path)
		_, _, advErr := LoadAdvisor(path)
		for _, err := range []error{fleetErr, advErr} {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("%s: error %v, want a FormatError", tc.file, err)
			}
			if fe.Format != tc.format || fe.Version != tc.version {
				t.Fatalf("%s: FormatError %+v, want %q v%d", tc.file, fe, tc.format, tc.version)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.format) || !strings.Contains(msg, "parcost train") {
				t.Fatalf("%s: error %q does not name the format and the fix", tc.file, msg)
			}
		}
	}
}

// reseal rebuilds a bundle after mutate edits its envelope and payload,
// with a checksum that matches the edited payload, so the check under test
// is the one after the checksum.
func reseal(t *testing.T, data []byte, mutate func(*envelope, *fleetPayload)) []byte {
	t.Helper()
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
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBundleRejections is the integrity acceptance criterion: corrupted
// bundle entries — in ANY shard — are rejected at load, as are malformed,
// truncated, wrong-format, wrong-version, and duplicate-machine bundles and
// candidate grids that are not positive and strictly increasing.
func TestBundleRejections(t *testing.T) {
	entries := fleetAdvisors(t)
	data, err := EncodeBundle(entries, BundleMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFleet(data); err != nil {
		t.Fatalf("control bundle failed: %v", err)
	}

	if _, _, err := DecodeFleet([]byte("not json")); err == nil {
		t.Fatal("malformed bundle accepted")
	}
	if _, _, err := DecodeFleet(data[:len(data)/2]); err == nil {
		t.Fatal("truncated bundle accepted")
	}

	// Whole-payload tamper: outer checksum catches it.
	wholeTamper := []byte(strings.Replace(string(data), "aurora", "borealis", 1))
	if string(wholeTamper) == string(data) {
		t.Fatal("tamper target not found")
	}
	if _, _, err := DecodeFleet(wholeTamper); err == nil {
		t.Fatal("payload-tampered bundle accepted")
	}

	// A flipped byte inside either entry's model state, checksum left as
	// it was, fails the one checksum.
	for _, machineName := range []string{"aurora", "frontier"} {
		var b envelope
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		var p fleetPayload
		if err := json.Unmarshal(b.Payload, &p); err != nil {
			t.Fatal(err)
		}
		idx := -1
		for i, e := range p.Entries {
			if e.Machine == machineName {
				idx = i
			}
		}
		st := p.Entries[idx].Model.State
		at := bytes.Index(b.Payload, st) + bytes.LastIndexAny(st, "0123456789")
		b.Payload[at] = '0' + (b.Payload[at]-'0'+1)%10
		bad, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeFleet(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s state byte flip: %v, want a checksum error", machineName, err)
		}
	}

	// A malformed entry state under a valid checksum is rejected by the
	// state decoder, naming the shard.
	for i, machineName := range []string{"aurora", "frontier"} {
		bad := reseal(t, data, func(_ *envelope, p *fleetPayload) {
			p.Entries[i].Model.State = json.RawMessage(`{"num_trees":1,"trees":[null]}`)
		})
		if _, _, err := DecodeFleet(bad); err == nil {
			t.Fatalf("bundle with malformed %q state accepted", machineName)
		} else if !strings.Contains(err.Error(), machineName) {
			t.Fatalf("malformed-state error does not name the shard: %v", err)
		}
	}

	// A candidate grid that Recommend cannot sweep in grid order — an axis
	// unsorted, repeated, or not positive — is refused, naming the shard.
	for name, grid := range map[string]dataset.Grid{
		"unsorted nodes": {Nodes: []int{50, 5, 200}, TileSizes: []int{40, 80}},
		"repeated tile":  {Nodes: []int{5, 50}, TileSizes: []int{40, 80, 80}},
		"zero nodes":     {Nodes: []int{0, 5}, TileSizes: []int{40}},
		"negative tile":  {Nodes: []int{5}, TileSizes: []int{-40, 80}},
		"empty tiles":    {Nodes: []int{5}},
	} {
		for i, machineName := range []string{"aurora", "frontier"} {
			bad := reseal(t, data, func(_ *envelope, p *fleetPayload) { p.Entries[i].Grid = grid })
			if _, _, err := DecodeFleet(bad); err == nil || !strings.Contains(err.Error(), machineName) {
				t.Fatalf("%s grid on %s: error %v, want a refusal naming the machine", name, machineName, err)
			}
		}
		adv := *entries[0].Advisor
		adv.Grid = grid
		if _, err := EncodeBundle([]FleetEntry{{Machine: "aurora", Advisor: &adv}}, BundleMeta{}); err == nil {
			t.Fatalf("%s grid encoded", name)
		}
	}

	// Payload-level rejections under a valid checksum.
	for name, mutate := range map[string]func(*envelope, *fleetPayload){
		"no entries": func(_ *envelope, p *fleetPayload) { p.Entries = nil },
		"duplicate machine": func(_ *envelope, p *fleetPayload) {
			p.Entries = append(p.Entries, p.Entries[0])
		},
		"empty machine":  func(_ *envelope, p *fleetPayload) { p.Entries[1].Machine = "" },
		"empty grid":     func(_ *envelope, p *fleetPayload) { p.Entries[0].Grid.Nodes = nil },
		"unknown kind":   func(_ *envelope, p *fleetPayload) { p.Entries[0].Model.Kind = "ml.does-not-exist" },
		"wrong format":   func(b *envelope, _ *fleetPayload) { b.Format = "some-other-format" },
		"future version": func(b *envelope, _ *fleetPayload) { b.Version = FleetBundleVersion + 1 },
		"v1 version":     func(b *envelope, _ *fleetPayload) { b.Version = 1 },
	} {
		if _, _, err := DecodeFleet(reseal(t, data, mutate)); err == nil {
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

	// Envelopes of another format, or none, are FormatErrors.
	for _, raw := range []string{`{"format":"parcost-mystery","version":1}`, `{}`} {
		var fe *FormatError
		if _, _, err := DecodeFleet([]byte(raw)); !errors.As(err, &fe) {
			t.Fatalf("%s: error %v, want a FormatError", raw, err)
		}
	}
}
