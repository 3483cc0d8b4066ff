package guide

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecodeFleet: the fleet bundle decoder behind serve, retrain and the
// query commands never panics, and every fleet it accepts re-encodes to a
// fixed point. Each input is a format, a version and body bytes, sealed
// under a header line whose checksum matches them, so mutations get past
// the checksum to the index, entry and model-state decoders. Seeds live
// under testdata/fuzz/FuzzDecodeFleet: a one-entry tiny-GB fleet, the same
// fleet with its node counts out of order, with a NaN threshold, and cut
// inside a tree block, and the older artifacts refused by version (the
// tiny-GB fleet's version 3 body, a version 2 bundle's payload, a version 1
// bundle, a parcost-advisor file).
func FuzzDecodeFleet(f *testing.F) {
	f.Fuzz(func(t *testing.T, format string, version int, body []byte) {
		entries, meta, err := DecodeFleet(sealPayload(format, version, body))
		if err != nil {
			return
		}
		once, err := EncodeBundle(entries, meta)
		if err != nil {
			t.Fatalf("encoding a decoded fleet: %v", err)
		}
		back, backMeta, err := DecodeFleet(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded fleet: %v", err)
		}
		twice, err := EncodeBundle(back, backMeta)
		if err != nil {
			t.Fatalf("re-encoding twice: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%q\n%q", once, twice)
		}
	})
}

// sealPayload lays out a bundle of the given format and version around body
// bytes, well formed or not: a header line whose checksum matches them, then
// the body.
func sealPayload(format string, version int, body []byte) []byte {
	hdr, err := json.Marshal(bundleHeader{Format: format, Version: version, Checksum: fmt.Sprintf("%x", sha256.Sum256(body))})
	if err != nil {
		panic(err)
	}
	return append(append(hdr, '\n'), body...)
}

// FuzzDecodeWarmSet: the warm-set decoder behind POST /v1/warmset and the
// serve daemon's -warmset file never panics, and every set it accepts
// round-trips — encoding it and decoding the result gives the same set, and
// encoding that again gives the same bytes. Seeds live under
// testdata/fuzz/FuzzDecodeWarmSet (an exported set, the wrong format, the
// wrong version, a truncated body).
func FuzzDecodeWarmSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := DecodeWarmSet(data)
		if err != nil {
			return
		}
		once, err := EncodeWarmSet(ws)
		if err != nil {
			t.Fatalf("encoding a decoded warm set: %v", err)
		}
		back, err := DecodeWarmSet(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded warm set: %v\n%s", err, once)
		}
		if !reflect.DeepEqual(back, ws) {
			t.Fatalf("warm set changed across encode/decode:\n got %+v\nwant %+v", back, ws)
		}
		again, err := EncodeWarmSet(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, once) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", again, once)
		}
	})
}
