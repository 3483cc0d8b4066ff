package retrain

import (
	"context"
	"fmt"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/rng"
)

// Measurer runs one configuration for real and reports its iteration
// seconds. Implementations talk to whatever executes jobs — a scheduler, a
// benchmark harness, or (in the CLI and tests) a simulated oracle. Calls
// must honor ctx: the controller wraps every attempt in a deadline and a
// hung measurement that ignores cancellation stalls the whole cycle.
type Measurer interface {
	Measure(ctx context.Context, c dataset.Config) (float64, error)
}

// MeasurerFunc adapts a function to the Measurer interface.
type MeasurerFunc func(ctx context.Context, c dataset.Config) (float64, error)

func (f MeasurerFunc) Measure(ctx context.Context, c dataset.Config) (float64, error) {
	return f(ctx, c)
}

// SimMeasurer answers measurements from a simulation oracle — the CLI's
// stand-in for a real fleet, and the reason `parcost retrain` can exercise
// the full closed loop offline.
type SimMeasurer struct {
	Oracle guide.Oracle
}

func (s SimMeasurer) Measure(ctx context.Context, c dataset.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	secs, ok := s.Oracle.TrueTime(c)
	if !ok {
		return 0, fmt.Errorf("retrain: config %v infeasible under simulation oracle", c)
	}
	return secs, nil
}

// sleepFunc is an injectable, context-aware sleep so tests can fast-forward
// backoff waits instead of serving them.
type sleepFunc func(ctx context.Context, d time.Duration) error

func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// measureOne runs a single configuration with per-attempt deadlines and
// bounded retries. Each attempt gets a fresh AttemptTimeout; between
// attempts it waits admission.Backoff with jitter drawn from r, so two
// resumed controllers with the same seed replay identical schedules. Returns the attempts actually made
// alongside the outcome.
func measureOne(ctx context.Context, m Measurer, c dataset.Config,
	attemptTimeout time.Duration, retries int, backoffBase, backoffMax time.Duration,
	sleep sleepFunc, r *rng.Source) (secs float64, attempts int, err error) {

	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		secs, err = m.Measure(actx, c)
		cancel()
		if err == nil {
			if secs <= 0 {
				err = fmt.Errorf("retrain: measurement of %v returned non-positive seconds %g", c, secs)
			} else {
				return secs, attempts, nil
			}
		}
		if ctx.Err() != nil {
			return 0, attempts, ctx.Err()
		}
		if attempt >= retries {
			return 0, attempts, fmt.Errorf("retrain: measuring %v: %w (after %d attempts)", c, err, attempts)
		}
		wait := admission.Backoff(attempt+1, backoffBase, backoffMax, r.Float64())
		if serr := sleep(ctx, wait); serr != nil {
			return 0, attempts, serr
		}
	}
}
