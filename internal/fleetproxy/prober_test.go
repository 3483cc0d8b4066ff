package fleetproxy

import (
	"encoding/json"
	"testing"
	"time"

	"parcost/internal/guide"
)

func TestHealthScoreInUnitInterval(t *testing.T) {
	cases := []struct {
		name string
		body string
		rtt  time.Duration
	}{
		{name: "no traffic scores by probe RTT", body: `{"status":"ok"}`, rtt: 3 * time.Millisecond},
		{name: "negative probe RTT", body: `{}`, rtt: -time.Second},
		{name: "one route", body: `{"latency":{"recommend":{"count":10,"mean_ms":4.5}}}`},
		{name: "zero-count route ignored", body: `{"latency":{"recommend":{"count":0,"mean_ms":-7}}}`},
		{name: "negative mean", body: `{"latency":{"recommend":{"count":3,"mean_ms":-1e9}}}`},
		{name: "totals overflow to +Inf", body: `{"latency":{"recommend":{"count":2,"mean_ms":1e308}}}`},
		{name: "totals overflow to -Inf", body: `{"latency":{"recommend":{"count":2,"mean_ms":-1e308}}}`},
		{name: "+Inf and -Inf totals sum to NaN", body: `{"latency":{"a":{"count":2,"mean_ms":1e308},"b":{"count":2,"mean_ms":-1e308}}}`},
		{name: "huge count", body: `{"latency":{"recommend":{"count":18446744073709551615,"mean_ms":1e300}}}`},
		{name: "largest finite mean", body: `{"latency":{"recommend":{"count":1,"mean_ms":1.7976931348623157e308}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rep guide.HealthReport
			if err := json.Unmarshal([]byte(tc.body), &rep); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if s := healthScore(rep, tc.rtt); !(s > 0 && s <= 1) {
				t.Fatalf("healthScore = %v, want in (0, 1]", s)
			}
		})
	}
}
