package tree

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"parcost/internal/rng"
)

// fittedState fits a small tree with the given engine and returns its state.
func fittedState(t *testing.T, s Splitter) State {
	t.Helper()
	x, y := stepData(rng.New(3), 600)
	tr := New(Params{MaxDepth: 6, MinSamplesSplit: 2, MinSamplesLeaf: 1, MinImpurityDec: 1e-9, Splitter: s}, nil)
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	st, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStateBlockRoundTrip: a fitted tree's state survives AppendState and
// ReadState exactly, two blocks in a row split where they should, and the
// decoded tree re-encodes to the same bytes.
func TestStateBlockRoundTrip(t *testing.T) {
	for _, s := range []Splitter{SplitterExact, SplitterHist} {
		st := fittedState(t, s)
		one, err := AppendState(nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if want := blockHeaderBytes + 8 + 8*st.Dim + 8 + nodeBytes*len(st.Leaf); len(one) != want {
			t.Fatalf("splitter %d: block is %d bytes, want %d", s, len(one), want)
		}
		two, err := AppendState(append([]byte(nil), one...), &st)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := ReadState(two)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rest, one) {
			t.Fatalf("splitter %d: ReadState left %d bytes, want the second block's %d", s, len(rest), len(one))
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("splitter %d: decoded state differs from the encoded one", s)
		}
		tr, err := FromState(&got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := tr.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, one) {
			t.Fatalf("splitter %d: re-encoding changed the block", s)
		}
	}
}

// TestStateCodecRefusesNonFinite: NaN and ±Inf in a gain, a node value, a
// threshold or MinImpurityDec are refused by AppendState and by FromState
// alike, as is a negative sample count by FromState, so every tree that
// decodes is finite and re-encodes.
func TestStateCodecRefusesNonFinite(t *testing.T) {
	for name, edit := range map[string]func(*State, float64){
		"gain":           func(st *State, x float64) { st.Gains[0] = x },
		"value":          func(st *State, x float64) { st.Value[len(st.Value)-1] = x },
		"threshold":      func(st *State, x float64) { st.Threshold[0] = x },
		"MinImpurityDec": func(st *State, x float64) { st.Params.MinImpurityDec = x },
	} {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			st := fittedState(t, SplitterExact)
			edit(&st, x)
			if _, err := AppendState(nil, &st); err == nil {
				t.Errorf("AppendState accepted %s %v", name, x)
			}
			if _, err := FromState(&st); err == nil {
				t.Errorf("FromState accepted %s %v", name, x)
			}
		}
	}
	st := fittedState(t, SplitterExact)
	st.Samples[len(st.Samples)-1] = -1
	if _, err := FromState(&st); err == nil {
		t.Error("FromState accepted a negative sample count")
	}
}

// TestAppendStateRefusesUnencodable: an int past int32 and node arrays of
// different lengths cannot be written as a block.
func TestAppendStateRefusesUnencodable(t *testing.T) {
	st := fittedState(t, SplitterExact)
	st.Samples[0] = math.MaxInt32 + 1
	if _, err := AppendState(nil, &st); err == nil {
		t.Error("AppendState accepted a sample count past int32")
	}
	st = fittedState(t, SplitterExact)
	st.Right = st.Right[:1]
	if _, err := AppendState(nil, &st); err == nil {
		t.Error("AppendState accepted node arrays of different lengths")
	}
}

// TestReadStateChecksLengths: every proper prefix of a block is refused, a
// leaf flag other than 0 or 1 is refused, and a count that overruns the
// input is refused before anything is allocated for it.
func TestReadStateChecksLengths(t *testing.T) {
	st := fittedState(t, SplitterExact)
	block, err := AppendState(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(block); n++ {
		if _, _, err := ReadState(block[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte block decoded", n, len(block))
		}
	}

	gainsAt := blockHeaderBytes
	nodesAt := gainsAt + 8 + 8*st.Dim
	flag := append([]byte(nil), block...)
	flag[nodesAt+8] = 2
	if _, _, err := ReadState(flag); err == nil {
		t.Error("leaf flag 2 decoded")
	}

	for name, at := range map[string]int{"gains": gainsAt, "nodes": nodesAt} {
		for _, count := range []uint64{1 << 62, math.MaxUint64, uint64(len(block))} {
			huge := append([]byte(nil), block...)
			binary.LittleEndian.PutUint64(huge[at:], count)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := ReadState(huge)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s count %d decoded", name, count)
			}
			// The error and the gains read before a bad node count
			// allocate a little; an array sized by the count would not.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
				t.Errorf("%s count %d: %d bytes allocated before refusing", name, count, grew)
			}
		}
	}
}
