package fleetproxy

import "testing"

// FuzzParseHedge: the -hedge-after parser never panics, and every spec it
// accepts is exactly one of "off", a percentile in (0, 100] or a positive
// fixed delay, with the other two fields zero. Seeds live under
// testdata/fuzz/FuzzParseHedge (each accepted form, a percentile out of
// range, NaN, a negative duration, junk).
func FuzzParseHedge(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		h, err := ParseHedge(s)
		if err != nil {
			return
		}
		pct := h.Percentile > 0 && h.Percentile <= 100
		active, want := 0, HedgeSpec{}
		if h.Disabled {
			active, want = active+1, HedgeSpec{Disabled: true}
		}
		if pct {
			active, want = active+1, HedgeSpec{Percentile: h.Percentile}
		}
		if h.Fixed > 0 {
			active, want = active+1, HedgeSpec{Fixed: h.Fixed}
		}
		if active != 1 || h != want {
			t.Fatalf("ParseHedge(%q) = %+v: want exactly one of Disabled, Percentile in (0,100], Fixed > 0, the rest zero", s, h)
		}
	})
}
