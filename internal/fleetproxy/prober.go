package fleetproxy

import (
	"context"
	"math"
	"sort"
	"time"

	"parcost/internal/guide"
)

// The background health prober. Every ProbeInterval each backend's
// /v1/healthz is fetched with its own ProbeTimeout; the answer updates the
// backend's health flag and score, and — the recovery half of the breaker
// state machine — a successful probe closes the backend's breaker, so a
// host that came back rejoins the fleet without live traffic having to risk
// the first trial.

// Start launches the prober goroutine. It runs one immediate sweep so scores
// are populated before the first request, then ticks until Close.
func (p *Proxy) Start() {
	p.probers.Add(1)
	go func() {
		defer p.probers.Done()
		p.probeAll()
		t := time.NewTicker(p.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// probeAll probes every current backend concurrently and waits for the sweep
// to finish, keeping at most one outstanding probe per backend.
func (p *Proxy) probeAll() {
	backends := p.backendList()
	done := make(chan struct{}, len(backends))
	for _, b := range backends {
		go func(b *backendState) {
			defer func() { done <- struct{}{} }()
			p.probeOne(b)
		}(b)
	}
	for range backends {
		<-done
	}
}

func (p *Proxy) probeOne(b *backendState) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	start := p.cfg.Now()
	rep, err := p.fetchHealth(ctx, b.url)
	if err != nil {
		b.setProbe(false, 0, p.cfg.Now())
		b.breaker.Failure()
		return
	}
	// Probe succeeded: close the breaker (probe-driven recovery) and refresh
	// the score from the backend's own latency histograms, falling back to
	// probe round-trip time when it has served no traffic yet.
	b.breaker.Success()
	b.setProbe(true, healthScore(rep, p.cfg.Now().Sub(start)), p.cfg.Now())
}

// healthScore converts a backend's latency histograms into a scalar
// preference in (0, 1]: 1/(1 + weighted mean latency in ms) across routes.
// Faster backends score closer to 1 and win replica/hedge ordering in
// candidates(); the monotone transform is all that matters, not the scale.
func healthScore(rep guide.HealthReport, probeRTT time.Duration) float64 {
	// Fold in sorted route order: float accumulation is not associative, so
	// iterating the map directly would let the score's last bits depend on
	// randomized map order.
	routes := make([]string, 0, len(rep.Latency))
	for name := range rep.Latency {
		routes = append(routes, name)
	}
	sort.Strings(routes)
	var totalMs, n float64
	for _, name := range routes {
		snap := rep.Latency[name]
		if snap.Count == 0 {
			continue
		}
		totalMs += snap.MeanMs * float64(snap.Count)
		n += float64(snap.Count)
	}
	meanMs := float64(probeRTT) / float64(time.Millisecond)
	if n > 0 {
		meanMs = totalMs / n
	}
	if !(meanMs >= 0) { // negative, or NaN from +Inf and -Inf route totals
		meanMs = 0
	}
	return 1 / (1 + min(meanMs, math.MaxFloat64)) // an overflowed +Inf mean still scores above 0
}
