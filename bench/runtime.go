package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// rtSnap is a point-in-time reading of the process's cost counters.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	cpu        time.Duration
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snapRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtSnap{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), cpu: cpu}
}

// sub returns the cost accrued between b and a.
func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles, cpu: a.cpu - b.cpu}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{allocBytes: a.allocBytes + b.allocBytes, gcCycles: a.gcCycles + b.gcCycles, cpu: a.cpu + b.cpu}
}

// liveHeapBytes reads the heap kept live by the last completed GC.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch tracks the peak live heap while enabled. The live heap is
// published at the end of each GC cycle, so polling at 50 ms misses no
// cycle's value for more than one poll.
type heapWatch struct {
	mu   sync.Mutex
	on   bool
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

// enable turns peak tracking on or off; samples taken while off are
// ignored (set-up, traced rounds).
func (h *heapWatch) enable(on bool) {
	h.mu.Lock()
	h.on = on
	h.mu.Unlock()
	if on {
		h.sample()
	}
}

func (h *heapWatch) sample() {
	v := liveHeapBytes()
	h.mu.Lock()
	if h.on && v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// close stops the poller, waits for it, and returns the peak in MB.
func (h *heapWatch) close() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// calibIters sizes the calibration kernel to about 20 ms on the
// reference host (see REFERENCE.json).
const calibIters = 10_000_000

var calibSink uint64

// calibrate times a fixed pure-Go integer kernel, in milliseconds. It
// opens every round: its drift across rounds and runs flags a host
// that slowed down, independently of the program under test.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(start)) / float64(time.Millisecond)
}
