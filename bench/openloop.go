package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// outcome is one request's timeline. Latency is measured from due —
// when an open-loop schedule wanted the request sent — so a stall that
// holds back later requests is charged to them too; late is how far
// the generator fell behind its schedule.
type outcome struct {
	k     int // request index
	due   time.Time
	sent  time.Time
	first time.Time // first response byte or line
	done  time.Time
	err   error
}

func (o outcome) latencyMS() float64 { return ms(o.done.Sub(o.due)) }
func (o outcome) lateMS() float64    { return ms(o.sent.Sub(o.due)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sendFunc issues request k and reports when its first response data
// arrived.
type sendFunc func(k int) (first time.Time, err error)

// poisson returns n arrival offsets of a Poisson process at rate per
// second.
func poisson(r *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends request next()+i at start+dues[i] over at most conns
// connections, whatever the responses do; a request whose connection
// is still busy waits, and that wait counts in its latency. It returns
// once every request has completed.
func openLoop(start time.Time, dues []time.Duration, conns int, next func() int, send sendFunc) []outcome {
	out := make([]outcome, len(dues))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		o := outcome{k: next(), due: due, sent: time.Now()}
		wg.Add(1)
		go func(i int, o outcome) {
			defer wg.Done()
			defer func() { <-slots }()
			o.first, o.err = send(o.k)
			o.done = time.Now()
			out[i] = o
		}(i, o)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients that each send their next request as
// soon as the previous one returns, until deadline. A request is due
// when its client sends it.
func closedLoop(deadline time.Time, conns int, next func() int, send sendFunc) []outcome {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				now := time.Now()
				o := outcome{k: next(), due: now, sent: now}
				o.first, o.err = send(o.k)
				o.done = time.Now()
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
