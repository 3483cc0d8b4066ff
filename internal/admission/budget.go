package admission

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Backoff is the wait before retry n (1-based) on an exponential ladder
// with jitter: base·2ⁿ⁻¹, capped at limit (as is a doubling that overflows
// to a non-positive value), then half of that wait fixed plus u times the
// other half. u is a uniform draw from [0, 1) that the caller takes from
// its own seeded rng.Source, so a retry schedule replays per seed. The
// fixed half keeps the ladder growing; the drawn half keeps a fleet of
// callers that failed together from retrying together.
func Backoff(n int, base, limit time.Duration, u float64) time.Duration {
	wait := base << uint(n-1)
	if wait > limit || wait <= 0 {
		wait = limit
	}
	return wait/2 + time.Duration(u*float64(wait/2))
}

// RetryBudget is the fleet proxy's shared cap on retries and hedges: a
// clock-free token bucket in the style of Finagle's retry budgets. Every
// INITIAL request deposits ratio tokens; every retry or hedged duplicate
// withdraws one whole token. In steady state the extra load the proxy may
// add on top of first attempts is therefore bounded at ratio (20% by
// default in fleetproxy) of offered traffic — so when the whole fleet
// browns out and every attempt fails, retries dry up with the traffic that
// funds them instead of multiplying it. Being funded by requests rather
// than by time keeps the budget deterministic under test clocks.
//
// The bucket starts full (at burst) so a cold proxy can still fail over an
// early burst of errors, and is capped at burst so quiet periods cannot
// bank unlimited retry credit.
//
// A nil *RetryBudget grants every withdrawal, preserving the uncapped
// legacy behavior when the budget is disabled.
type RetryBudget struct {
	mu        sync.Mutex
	ratio     float64
	burst     float64
	tokens    float64
	deposits  uint64
	withdrawn uint64
	denied    uint64
}

// NewRetryBudget builds a budget earning ratio tokens per initial request,
// holding at most burst, starting full.
func NewRetryBudget(ratio, burst float64) *RetryBudget {
	if ratio < 0 {
		ratio = 0
	}
	if burst < 1 {
		burst = 1
	}
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// Deposit credits the budget for one initial request. Nil-safe.
func (b *RetryBudget) Deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.deposits++
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Withdraw takes one token for a retry or hedge, reporting whether it was
// granted. Nil-safe: a nil budget always grants.
func (b *RetryBudget) Withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		b.withdrawn++
		return true
	}
	b.denied++
	return false
}

// BudgetStats is a point-in-time snapshot of a retry budget.
type BudgetStats struct {
	Tokens    float64 `json:"tokens"`
	Ratio     float64 `json:"ratio"`
	Burst     float64 `json:"burst"`
	Deposits  uint64  `json:"deposits"`
	Withdrawn uint64  `json:"withdrawn"`
	Denied    uint64  `json:"denied"`
}

// Stats snapshots the budget. Nil-safe (zero value when disabled).
func (b *RetryBudget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{
		Tokens: b.tokens, Ratio: b.ratio, Burst: b.burst,
		Deposits: b.deposits, Withdrawn: b.withdrawn, Denied: b.denied,
	}
}

// WriteBudgetPrometheus renders a retry-budget snapshot in Prometheus text
// exposition format (parcost_retry_budget_* family).
func WriteBudgetPrometheus(w io.Writer, s BudgetStats) {
	fmt.Fprint(w, "# HELP parcost_retry_budget_tokens Retry-budget tokens currently available.\n# TYPE parcost_retry_budget_tokens gauge\n")
	fmt.Fprintf(w, "parcost_retry_budget_tokens %s\n", promNum(s.Tokens))
	fmt.Fprint(w, "# HELP parcost_retry_budget_withdrawn_total Retries and hedges granted by the budget.\n# TYPE parcost_retry_budget_withdrawn_total counter\n")
	fmt.Fprintf(w, "parcost_retry_budget_withdrawn_total %d\n", s.Withdrawn)
	fmt.Fprint(w, "# HELP parcost_retry_budget_denied_total Retries and hedges suppressed by an empty budget.\n# TYPE parcost_retry_budget_denied_total counter\n")
	fmt.Fprintf(w, "parcost_retry_budget_denied_total %d\n", s.Denied)
}
