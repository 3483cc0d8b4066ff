package guide

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parcost/internal/ccsd"
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
// train -machine` wrote before fleet bundles became the only format), a
// version 1 fleet bundle and a version 2 fleet bundle (one JSON envelope,
// tree node arrays as JSON numbers), each written by that older code. Each
// fails with a FormatError naming its format and version and pointing at
// `parcost train`, through LoadFleet and LoadAdvisor alike.
func TestLoadFleetSingleAdvisorArtifact(t *testing.T) {
	for _, tc := range []struct {
		file, format string
		version      int
	}{
		{"advisor_v1.json", "parcost-advisor", 1},
		{"fleet_v1.json", FleetBundleFormat, 1},
		{"fleet_v2.json", FleetBundleFormat, 2},
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

// bundleParts is a bundle taken apart: its header line, its index and each
// entry's model state.
type bundleParts struct {
	hdr    bundleHeader
	index  fleetIndex
	states [][]byte
}

// splitBundle takes a well-formed bundle apart.
func splitBundle(t *testing.T, data []byte) bundleParts {
	t.Helper()
	var p bundleParts
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		t.Fatal("bundle has no header line")
	}
	if err := json.Unmarshal(data[:nl], &p.hdr); err != nil {
		t.Fatal(err)
	}
	idx, rest, err := readSection(data[nl+1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(idx, &p.index); err != nil {
		t.Fatal(err)
	}
	for len(rest) > 0 {
		var st []byte
		if st, rest, err = readSection(rest); err != nil {
			t.Fatal(err)
		}
		p.states = append(p.states, st)
	}
	return p
}

// reseal rebuilds a bundle after mutate edits its parts, with a checksum
// that matches the edited body, so the check under test is the one after
// the checksum.
func reseal(t *testing.T, data []byte, mutate func(*bundleParts)) []byte {
	t.Helper()
	p := splitBundle(t, data)
	mutate(&p)
	idx, err := json.Marshal(p.index)
	if err != nil {
		t.Fatal(err)
	}
	body := appendSection(nil, idx)
	for _, st := range p.states {
		body = appendSection(body, st)
	}
	return sealPayload(p.hdr.Format, p.hdr.Version, body)
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

	// Whole-body tamper: the checksum catches it.
	wholeTamper := []byte(strings.Replace(string(data), "aurora", "borealis", 1))
	if string(wholeTamper) == string(data) {
		t.Fatal("tamper target not found")
	}
	if _, _, err := DecodeFleet(wholeTamper); err == nil {
		t.Fatal("body-tampered bundle accepted")
	}

	// A flipped byte inside either entry's model state, checksum left as
	// it was, fails the one checksum.
	parts := splitBundle(t, data)
	for i, machineName := range []string{"aurora", "frontier"} {
		if parts.index.Entries[i].Machine != machineName {
			t.Fatalf("entry %d is %q, want %q", i, parts.index.Entries[i].Machine, machineName)
		}
		st := parts.states[i]
		at := bytes.Index(data, st) + len(st)/2
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x40
		if _, _, err := DecodeFleet(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s state byte flip: %v, want a checksum error", machineName, err)
		}
	}

	// A malformed entry state under a valid checksum is rejected by the
	// state decoder, naming the shard.
	for i, machineName := range []string{"aurora", "frontier"} {
		for name, state := range map[string][]byte{
			"garbage":   []byte("not a model state"),
			"truncated": parts.states[i][:len(parts.states[i])-1],
			"empty":     nil,
		} {
			bad := reseal(t, data, func(p *bundleParts) { p.states[i] = state })
			if _, _, err := DecodeFleet(bad); err == nil {
				t.Fatalf("bundle with %s %q state accepted", name, machineName)
			} else if !strings.Contains(err.Error(), machineName) {
				t.Fatalf("%s-state error does not name the shard: %v", name, err)
			}
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
			bad := reseal(t, data, func(p *bundleParts) { p.index.Entries[i].Grid = grid })
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

	// Body-level rejections under a valid checksum.
	for name, mutate := range map[string]func(*bundleParts){
		"no entries": func(p *bundleParts) { p.index.Entries, p.states = nil, nil },
		"duplicate machine": func(p *bundleParts) {
			p.index.Entries = append(p.index.Entries, p.index.Entries[0])
			p.states = append(p.states, p.states[0])
		},
		"empty machine":  func(p *bundleParts) { p.index.Entries[1].Machine = "" },
		"empty grid":     func(p *bundleParts) { p.index.Entries[0].Grid.Nodes = nil },
		"unknown kind":   func(p *bundleParts) { p.index.Entries[0].Kind = "ml.does-not-exist" },
		"missing state":  func(p *bundleParts) { p.states = p.states[:1] },
		"extra state":    func(p *bundleParts) { p.states = append(p.states, p.states[0]) },
		"wrong format":   func(p *bundleParts) { p.hdr.Format = "some-other-format" },
		"future version": func(p *bundleParts) { p.hdr.Version = FleetBundleVersion + 1 },
		"v1 version":     func(p *bundleParts) { p.hdr.Version = 1 },
		"v2 version":     func(p *bundleParts) { p.hdr.Version = 2 },
	} {
		if _, _, err := DecodeFleet(reseal(t, data, mutate)); err == nil {
			t.Fatalf("%s bundle accepted", name)
		}
	}

	// Framing a valid checksum cannot vouch for: a header without its
	// newline, and section lengths that overrun the body.
	nl := bytes.IndexByte(data, '\n')
	for name, bad := range map[string][]byte{
		"no newline":       append(append([]byte(nil), data[:nl]...), data[nl+1:]...),
		"index overruns":   sealPayload(FleetBundleFormat, FleetBundleVersion, binary.AppendUvarint(nil, 1<<40)),
		"state overruns":   sealPayload(FleetBundleFormat, FleetBundleVersion, data[nl+1:len(data)-1]),
		"bad index length": sealPayload(FleetBundleFormat, FleetBundleVersion, []byte{0xff}),
	} {
		if _, _, err := DecodeFleet(bad); err == nil {
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

// BenchmarkDecodeFleet times DecodeFleet on the bundle `parcost train
// -machines aurora,frontier` writes: the paper GB (750 trees, depth 10)
// fitted per machine on a 2300-row simulated dataset. MB/s is bundle bytes
// decoded per second; bundle_MB is the bundle's size.
func BenchmarkDecodeFleet(b *testing.B) {
	var entries []FleetEntry
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 2300, Noise: true, Seed: 1})
		adv, err := NewAdvisor(ensemble.NewGradientBoostingPaper(1), d)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, FleetEntry{Machine: spec.Name, Advisor: adv})
	}
	data, err := EncodeBundle(entries, BundleMeta{Source: "simulated seed=1"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeFleet(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/1e6, "bundle_MB")
}
