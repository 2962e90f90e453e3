// Package backoff computes capped exponential retry delays.
package backoff

import "time"

// Delay returns the wait before the given retry (1 = first retry):
// first, doubled for each retry after the first, capped at limit. A
// non-positive first or retry gives 0. The doubling stops at the cap,
// so a huge retry count neither overflows nor loops for long.
func Delay(first, limit time.Duration, retry int) time.Duration {
	if first <= 0 || retry < 1 {
		return 0
	}
	d := first
	for i := 1; i < retry && d < limit; i++ {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return min(d, limit)
}
