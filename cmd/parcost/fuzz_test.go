package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
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

// serveRoutes are the POST endpoints FuzzServeBodies drives, each with the
// statuses its handler documents: 400 for a malformed or invalid body, 413
// past maxRequestBytes, 429 from the per-client rate limiter, and 503 from a
// recommend shed. A batch answers sheds per entry inside its 200.
var serveRoutes = []struct {
	path     string
	statuses []int
}{
	{"/v1/recommend", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable}},
	{"/v1/predict", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests}},
	{"/v1/batch", []int{http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests}},
}

// FuzzServeBodies: the serve handler never panics on any body POSTed to
// /v1/recommend, /v1/predict or /v1/batch (route picks one). It answers a
// status its handler documents; every non-200 body is an errorResponse
// with a non-empty error; every 200 body decodes as its response type; and
// every recommendation, alone or in a batch, names a configuration of the
// shard's grid. One small one-machine router serves every input. Seeds live
// under testdata/fuzz/FuzzServeBodies (valid queries of each route, an
// unknown machine, a bad objective, non-positive sizes, an empty batch, a
// batch entry that fails, a huge problem, wrong types, truncated JSON).
func FuzzServeBodies(f *testing.F) {
	router, adv, _ := testRouter(f)
	h := newServeHandler(router, nil)
	inGrid := func(nodes, tile int) bool {
		return slices.Contains(adv.Grid.Nodes, nodes) && slices.Contains(adv.Grid.TileSizes, tile)
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		rt := serveRoutes[int(route)%len(serveRoutes)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", rt.path, bytes.NewReader(body)))
		if !slices.Contains(rt.statuses, w.Code) {
			t.Fatalf("%s %q: status %d, not one of %v", rt.path, body, w.Code, rt.statuses)
		}
		decode := func(v any) {
			dec := json.NewDecoder(w.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				t.Fatalf("%s %q: status %d body %q does not decode as %T: %v", rt.path, body, w.Code, w.Body, v, err)
			}
		}
		if w.Code != http.StatusOK {
			var e errorResponse
			decode(&e)
			if e.Error == "" {
				t.Fatalf("%s %q: status %d with an empty error", rt.path, body, w.Code)
			}
			return
		}
		switch rt.path {
		case "/v1/recommend":
			var rr recommendResponse
			decode(&rr)
			if !inGrid(rr.Nodes, rr.Tile) {
				t.Fatalf("%s %q: recommended %d nodes × tile %d, not in the grid", rt.path, body, rr.Nodes, rr.Tile)
			}
		case "/v1/predict":
			var pr predictResponse
			decode(&pr)
		case "/v1/batch":
			var br batchResponse
			decode(&br)
			for i, e := range br.Results {
				switch {
				case e.Result != nil && !inGrid(e.Result.Nodes, e.Result.Tile):
					t.Fatalf("%s %q: entry %d recommended %d nodes × tile %d, not in the grid", rt.path, body, i, e.Result.Nodes, e.Result.Tile)
				case e.Result == nil && e.Error == "":
					t.Fatalf("%s %q: entry %d has neither a result nor an error", rt.path, body, i)
				}
			}
		}
	})
}
