package fleetproxy

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"parcost/internal/fleetproxy/faultinject"
)

// stormFleet builds a 3-backend fleet where EVERY backend answers 5xx — a
// fleet-wide brownout — with breakers effectively disabled so the retry
// ladder stays armed for every request, and hedging off so attempt counts
// are deterministic.
func stormFleet(t *testing.T, retryBudget float64) *testFleet {
	t.Helper()
	f := newTestFleet(t, 3, Config{
		RetryBudget:     retryBudget,
		RetryBackoff:    time.Millisecond,
		BreakerFailures: 1 << 20,
		Hedge:           HedgeSpec{Disabled: true},
	})
	for _, fb := range f.faults {
		fb.Script(faultinject.Err5xx, -1)
	}
	return f
}

func (f *testFleet) totalBackendHits() int64 {
	var total int64
	for _, fb := range f.faults {
		total += fb.Hits()
	}
	return total
}

// TestProxyRetryBudgetBoundsBrownoutAmplification is the satellite
// regression: before the shared retry budget, a fleet-wide brownout made the
// proxy multiply every client request into 1+Retries backend attempts —
// tripling offered backend QPS exactly when all three backends were already
// failing. With the budget, extra attempts are capped at the startup burst
// plus RetryBudget per initial request.
func TestProxyRetryBudgetBoundsBrownoutAmplification(t *testing.T) {
	const n = 200
	drive := func(f *testFleet) {
		for i := 0; i < n; i++ {
			resp, _ := f.post(t, "/v1/recommend", map[string]any{"machine": "aurora"})
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("request %d: status %d, want 503 from an all-failing fleet", i, resp.StatusCode)
			}
		}
	}

	// Control: budget disabled (negative) — the pre-budget retry ladder runs
	// every request through all 1+Retries sequential attempts.
	control := stormFleet(t, -1)
	drive(control)
	controlHits := control.totalBackendHits()
	if want := int64(n) * int64(1+control.proxy.cfg.Retries); controlHits != want {
		t.Fatalf("unbudgeted brownout made %d backend attempts, want full ladder %d", controlHits, want)
	}

	// Budgeted: same storm, default 0.2 ratio. Backend attempts are the n
	// initials plus at most burst + ratio·n funded retries — the brownout no
	// longer multiplies backend QPS.
	budgeted := stormFleet(t, 0.2)
	drive(budgeted)
	budgetHits := budgeted.totalBackendHits()
	bound := int64(n + retryBudgetBurst + n/5 + 2)
	if budgetHits < n || budgetHits > bound {
		t.Fatalf("budgeted brownout made %d backend attempts, want within [%d, %d]", budgetHits, n, bound)
	}
	if budgetHits*2 > controlHits {
		t.Fatalf("budget did not curb amplification: %d attempts vs control %d (want at most half)", budgetHits, controlHits)
	}

	st := budgeted.proxy.budget.Stats()
	if st.Denied == 0 {
		t.Fatal("an exhausted budget recorded no denied withdrawals")
	}
}

// TestProxyRetryBudgetExported pins the observability contract: healthz
// carries the retry_budget block and /metrics the parcost_retry_budget_*
// family when the budget is enabled, and neither when it is disabled.
func TestProxyRetryBudgetExported(t *testing.T) {
	f := stormFleet(t, 0.2)
	f.post(t, "/v1/recommend", map[string]any{"machine": "aurora"})

	resp, err := f.frontend.Client().Get(f.frontend.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		RetryBudget *struct {
			Tokens    float64 `json:"tokens"`
			Withdrawn uint64  `json:"withdrawn"`
		} `json:"retry_budget"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if health.RetryBudget == nil {
		t.Fatalf("healthz missing retry_budget block: %s", body)
	}
	if health.RetryBudget.Withdrawn == 0 {
		t.Fatal("retry_budget.withdrawn is 0 after a retried brownout request")
	}

	resp, err = f.frontend.Client().Get(f.frontend.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "parcost_retry_budget_tokens") {
		t.Fatalf("proxy /metrics missing parcost_retry_budget_tokens:\n%s", body)
	}

	off := stormFleet(t, -1)
	resp, err = off.frontend.Client().Get(off.frontend.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz (budget off): %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "retry_budget") {
		t.Fatalf("healthz advertises retry_budget with the budget disabled: %s", body)
	}
}

// TestProxyDeadPrimaryFailsOverWithoutBudget: with the retry budget empty, a
// dead primary — its listener closed, so the dial is refused — still fails
// over to the replica, which answers. The failover draws nothing from the
// budget: the refused attempt put no load on any backend.
func TestProxyDeadPrimaryFailsOverWithoutBudget(t *testing.T) {
	f := newTestFleet(t, 2, Config{
		RetryBackoff: time.Millisecond,
		Hedge:        HedgeSpec{Disabled: true},
	})
	key := f.keyOwnedBy(t, 0)
	for f.proxy.budget.Withdraw() {
	}
	withdrawn := f.proxy.budget.Stats().Withdrawn
	f.servers[0].Close()

	resp, body := f.post(t, "/v1/recommend", map[string]any{"machine": key})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want the replica's 200", resp.StatusCode, body)
	}
	var got struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Backend != "backend-1" || resp.Header.Get("X-Parcost-Degraded") != "" {
		t.Fatalf("answer from %q (degraded %q), want a fresh answer from backend-1",
			got.Backend, resp.Header.Get("X-Parcost-Degraded"))
	}
	if st := f.proxy.budget.Stats(); st.Withdrawn != withdrawn {
		t.Fatalf("dead-backend failover withdrew %d budget tokens", st.Withdrawn-withdrawn)
	}
}
