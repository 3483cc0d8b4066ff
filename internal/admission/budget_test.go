package admission

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestBackoff pins the one retry ladder: base·2ⁿ⁻¹ capped at max (and
// capped when the doubling overflows), of which half is fixed and u scales
// the other half.
func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name        string
		n           int
		base, limit time.Duration
		u           float64
		want        time.Duration
	}{
		{"first retry, no jitter", 1, 10 * ms, time.Second, 0, 5 * ms},
		{"first retry, mid jitter", 1, 10 * ms, time.Second, 0.5, 7500 * time.Microsecond},
		{"doubles per retry", 3, 10 * ms, time.Second, 0, 20 * ms},
		{"exactly at the cap", 2, 40 * ms, 80 * ms, 0, 40 * ms},
		{"capped", 8, 10 * ms, 80 * ms, 0, 40 * ms},
		{"capped, jitter", 8, 10 * ms, 80 * ms, 0.25, 50 * ms},
		{"doubling overflows negative", 41, 10 * ms, time.Second, 0, 500 * ms},
		{"doubling overflows to zero", 60, 10 * ms, time.Second, 0, 500 * ms},
		{"zero base takes the cap", 1, 0, time.Second, 0, 500 * ms},
	} {
		if got := Backoff(tc.n, tc.base, tc.limit, tc.u); got != tc.want {
			t.Errorf("%s: Backoff(%d, %v, %v, %g) = %v, want %v", tc.name, tc.n, tc.base, tc.limit, tc.u, got, tc.want)
		}
	}
	// Over the whole draw range u ∈ [0, 1) the wait stays in [cap/2, cap).
	for n := 1; n <= 70; n++ {
		capped := min(max(10*ms<<uint(n-1), 0), time.Second)
		if capped == 0 {
			capped = time.Second
		}
		for _, u := range []float64{0, 0.5, math.Nextafter(1, 0)} {
			got := Backoff(n, 10*ms, time.Second, u)
			if got < capped/2 || got >= capped {
				t.Fatalf("Backoff(%d, u=%g) = %v outside [%v, %v)", n, u, got, capped/2, capped)
			}
		}
	}
}

func TestRetryBudgetStartsFullAndDrains(t *testing.T) {
	b := NewRetryBudget(0.2, 3)
	for i := 0; i < 3; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdrawal %d from a full budget denied", i)
		}
	}
	if b.Withdraw() {
		t.Fatal("withdrawal from an empty budget granted")
	}
	st := b.Stats()
	if st.Withdrawn != 3 || st.Denied != 1 {
		t.Fatalf("withdrawn=%d denied=%d, want 3/1", st.Withdrawn, st.Denied)
	}
}

func TestRetryBudgetDepositsFundWithdrawals(t *testing.T) {
	b := NewRetryBudget(0.5, 10)
	for b.Withdraw() {
	}
	// Empty. Two initial requests at ratio 0.5 fund exactly one retry.
	b.Deposit()
	if b.Withdraw() {
		t.Fatal("half a token granted a whole withdrawal")
	}
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("a funded withdrawal was denied")
	}
	if b.Withdraw() {
		t.Fatal("budget granted more than its deposits funded")
	}
}

func TestRetryBudgetCapsAtBurst(t *testing.T) {
	b := NewRetryBudget(1, 2)
	for i := 0; i < 100; i++ {
		b.Deposit() // quiet period must not bank unlimited credit
	}
	granted := 0
	for b.Withdraw() {
		granted++
	}
	if granted != 2 {
		t.Fatalf("granted %d withdrawals after heavy deposits, want burst=2", granted)
	}
}

func TestRetryBudgetSteadyStateRatio(t *testing.T) {
	// The core brownout-amplification bound: with every attempt failing,
	// retries in steady state cannot exceed ratio × initial requests.
	b := NewRetryBudget(0.2, 5)
	const initials = 1000
	retries := 0
	for i := 0; i < initials; i++ {
		b.Deposit()
		if b.Withdraw() {
			retries++
		}
	}
	// burst (5) of startup credit plus ~0.2/request earned along the way
	// (the exact count depends on where fractional tokens land mid-stream).
	low, high := initials/5-1, 5+initials/5
	if retries < low || retries > high {
		t.Fatalf("retries=%d over %d initials, want within [%d, %d] (burst + ratio share)", retries, initials, low, high)
	}
}

func TestRetryBudgetNilGrantsEverything(t *testing.T) {
	var b *RetryBudget
	b.Deposit() // must not panic
	for i := 0; i < 100; i++ {
		if !b.Withdraw() {
			t.Fatal("nil budget denied a withdrawal")
		}
	}
	if st := b.Stats(); st != (BudgetStats{}) {
		t.Fatalf("nil budget stats = %+v, want zero", st)
	}
}

func TestWriteBudgetPrometheus(t *testing.T) {
	b := NewRetryBudget(0.2, 10)
	b.Withdraw() // 10 → 9
	b.Deposit()  // 9 → 9.2
	var sb strings.Builder
	WriteBudgetPrometheus(&sb, b.Stats())
	out := sb.String()
	for _, want := range []string{
		"parcost_retry_budget_tokens 9.2\n",
		"parcost_retry_budget_withdrawn_total 1\n",
		"parcost_retry_budget_denied_total 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
