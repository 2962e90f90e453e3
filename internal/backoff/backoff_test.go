package backoff

import (
	"math"
	"testing"
	"time"
)

func TestDelay(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name         string
		first, limit time.Duration
		retry        int
		want         time.Duration
	}{
		{"before any retry", 50 * ms, 2 * time.Second, 0, 0},
		{"first retry", 50 * ms, 2 * time.Second, 1, 50 * ms},
		{"second retry doubles", 50 * ms, 2 * time.Second, 2, 100 * ms},
		{"fifth retry", 50 * ms, 2 * time.Second, 5, 800 * ms},
		{"last below the HTTP cap", 50 * ms, 2 * time.Second, 6, 1600 * ms},
		{"HTTP cap", 50 * ms, 2 * time.Second, 7, 2 * time.Second},
		{"tile cap", 50 * ms, 5 * time.Second, 8, 5 * time.Second},
		{"tile below cap", 50 * ms, 5 * time.Second, 7, 3200 * ms},
		{"first above the cap", 10 * time.Second, 5 * time.Second, 1, 5 * time.Second},
		{"huge retry count", 50 * ms, 5 * time.Second, math.MaxInt, 5 * time.Second},
		{"huge retry, huge cap", time.Nanosecond, math.MaxInt64, math.MaxInt, math.MaxInt64},
		{"huge retry, odd cap", 3, math.MaxInt64 - 1, math.MaxInt, math.MaxInt64 - 1},
		{"no first delay", 0, 5 * time.Second, math.MaxInt, 0},
	} {
		if got := Delay(tc.first, tc.limit, tc.retry); got != tc.want {
			t.Errorf("%s: Delay(%v, %v, %d) = %v, want %v", tc.name, tc.first, tc.limit, tc.retry, got, tc.want)
		}
	}
}
