package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tally counts the operations a run attempted and the ones that failed:
// a non-2xx answer, a client timeout, a record that does not match its
// reference, or (fig9-fleet) a fleet retry, hedge or degrade-to-local.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  string
}

// op records one operation's outcome; why is empty for a success.
func (t *tally) op(why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if why != "" {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = why
		}
	}
}

// fail marks an already counted operation failed, for checks that run
// after the timed loop.
func (t *tally) fail(why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.firstErr == "" {
		t.firstErr = why
	}
}

func (t *tally) counts() (attempted, failed int64, firstErr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.firstErr
}

func failedFrac(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentile is the highest of the candidate percentiles that still
// has at least ten samples beyond it out of n, or 0 if none has. A tail
// estimate resting on fewer samples than that is noise.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median is the middle of xs, or the mean of its two middle values when
// their number is even; 0 for an empty slice. It sorts xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
