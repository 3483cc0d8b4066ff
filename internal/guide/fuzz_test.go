package guide

import (
	"bytes"
	"reflect"
	"testing"
)

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
