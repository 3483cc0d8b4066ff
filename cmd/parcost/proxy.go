package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"parcost/internal/fleetproxy"
)

// runProxy fronts N `parcost serve` backends with one fault-tolerant
// endpoint speaking the identical /v1 wire contract: consistent-hash routing
// on the machine key, health-probed backends, bounded retries with backoff,
// hedged duplicates for slow primaries, per-backend circuit breakers, and
// explicit degradation (stale replay or structured 503) on total outage.
func runProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ContinueOnError)
	var (
		backends        = fs.String("backends", "", "comma-separated `parcost serve` addresses, e.g. host1:8081,host2:8082 (required)")
		addr            = fs.String("addr", ":8080", "listen address")
		hedgeAfter      = fs.String("hedge-after", "95p", "hedge a slow request onto the next replica after: a percentile of the route's request latencies (\"95p\"), a fixed delay (\"250ms\"), or \"off\"")
		retries         = fs.Int("retries", 2, "additional attempts on other replicas after a connection failure or 5xx")
		retryBudget     = fs.Float64("retry-budget", 0.2, "fleet-wide retry/hedge tokens earned per initial request (caps brownout amplification; 0 disables the budget)")
		timeout         = fs.Duration("timeout", 30*time.Second, "per-attempt upstream deadline")
		breakerWindow   = fs.Duration("breaker-window", 10*time.Second, "how long a tripped circuit breaker rejects a backend before admitting trials")
		breakerFailures = fs.Int("breaker-failures", 5, "consecutive failures that trip a backend's breaker open")
		probeEvery      = fs.Duration("probe-every", 2*time.Second, "background health-probe interval")
		staleCache      = fs.Int("stale-cache", 256, "stale-response cache entries for degraded answers (0 disables)")
		drain           = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout on SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends == "" {
		return fmt.Errorf("-backends is required")
	}
	if *retries < 0 || *breakerFailures < 1 || *staleCache < 0 || !(*retryBudget >= 0) {
		return fmt.Errorf("-retries, -retry-budget, and -stale-cache must be non-negative and -breaker-failures positive")
	}
	if *timeout <= 0 || *breakerWindow <= 0 || *probeEvery <= 0 || *drain <= 0 {
		return fmt.Errorf("-timeout, -breaker-window, -probe-every, and -drain must be positive")
	}
	hedge, err := fleetproxy.ParseHedge(*hedgeAfter)
	if err != nil {
		return err
	}

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	cfg := fleetproxy.Config{
		Backends:        list,
		Retries:         *retries,
		RetryBudget:     *retryBudget,
		Hedge:           hedge,
		RequestTimeout:  *timeout,
		BreakerWindow:   *breakerWindow,
		BreakerFailures: *breakerFailures,
		ProbeInterval:   *probeEvery,
		StaleCacheSize:  *staleCache,
	}
	// The flag's 0 genuinely means "no retries"/"no budget"/"no cache"; the
	// Config zero value means "default".
	if *retries == 0 {
		cfg.Retries = -1
	}
	if *retryBudget == 0 {
		cfg.RetryBudget = -1
	}
	if *staleCache == 0 {
		cfg.StaleCacheSize = -1
	}

	p, err := fleetproxy.New(cfg)
	if err != nil {
		return err
	}
	defer p.Close()
	p.Start()

	fmt.Printf("Proxying %d backends on %s (hedge %s, retries %d, breaker %v/%d)\n",
		len(p.Backends()), *addr, *hedgeAfter, *retries, *breakerWindow, *breakerFailures)
	return runUntilSignal(*addr, p.Handler(), *drain, nil, nil)
}
