package main

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// FuzzRequestContextDeadline: requestContext never panics on any
// X-Parcost-Deadline-Ms value. Without the header it returns the request's
// own context; otherwise it either refuses the value or returns a context
// whose deadline is the given positive number of milliseconds after the
// call. Seeds live under testdata/fuzz/FuzzRequestContextDeadline (valid
// budgets, a signed and a zero-padded one, zero, negative, fractional,
// past the Duration range, junk).
func FuzzRequestContextDeadline(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		r := httptest.NewRequest("POST", "/v1/recommend", nil)
		r.Header.Set(deadlineHeader, h)
		before := time.Now()
		ctx, cancel, err := requestContext(r)
		after := time.Now()
		if err != nil {
			return
		}
		defer cancel()
		dl, ok := ctx.Deadline()
		if h == "" {
			if ctx != r.Context() || ok {
				t.Fatalf("no header: got a derived context (deadline %v, %v)", dl, ok)
			}
			return
		}
		ms, perr := strconv.Atoi(h)
		if perr != nil || ms <= 0 {
			t.Fatalf("accepted %q, which is not a positive integer", h)
		}
		if !ok {
			t.Fatalf("accepted %q without a deadline", h)
		}
		d := time.Duration(ms) * time.Millisecond
		if d <= 0 || dl.Before(before.Add(d)) || dl.After(after.Add(d)) {
			t.Fatalf("%q: deadline %v is not %v after the call (between %v and %v)", h, dl, d, before, after)
		}
	})
}
