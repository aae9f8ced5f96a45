package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// clients is the closed loop's client count: one per CPU of the 2-core
// box the benchmark was sized on.
const clients = 2

// clientTimeout bounds one request; a request that hits it counts as
// failed with this latency.
const clientTimeout = 30 * time.Second

// reqSpec is one request of a closed loop.
type reqSpec struct {
	id   string
	body []byte
	// check validates the response body; "" means correct.
	check func(body []byte) string
}

// replayFunc runs the traced phase's in-process replays for one
// response, outside the timed call, and returns the time the replayed
// calls on the request's blocking path took ("" why = record correct).
type replayFunc func(track int, rs reqSpec, parent int, body []byte) (time.Duration, string)

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	lat          []float64 // per-request latency, ms; a traced phase's traced requests only
	done         []float64 // when each of lat's requests completed, s from the phase start
	untraced     []float64 // traced phase: latency of its interleaved untraced requests, ms
	unattributed []float64 // traced phase: roundtrip - replayed layers, us
	elapsed      time.Duration
}

// closedLoop runs `clients` goroutines against the worker for dur. Each
// sends its next sync POST /run only when the previous one has returned,
// as fleet dispatchers and scripts do; next hands out the requests and
// reports false when it has none left. With rec set the phase is traced:
// each client alternates traced and untraced requests, so the trace
// overhead compares requests of the same moment against the same server
// state. A traced request carries a traceparent, its round trip and the
// worker's returned stage timeline become spans, and replay runs after
// it.
func closedLoop(w *worker, client *http.Client, dur time.Duration, next func(client int) (reqSpec, bool),
	t *tally, rec *recorder, replay replayFunc) loopResult {
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, done, untraced, unattributed []float64
			for n := 0; time.Now().Before(deadline); n++ {
				rs, ok := next(c)
				if !ok {
					break
				}
				tr := rec
				if n%2 == 1 {
					tr = nil
				}
				root := tr.open(spanRoundtrip, rs.id, c)
				d, body, hdr, why := post(client, w.base+"/run", rs, tr != nil)
				tr.finish(root)
				if why == "" {
					why = rs.check(body)
				}
				if why == "" && tr != nil {
					stitchTimeline(rec, hdr, rs.id, root, c)
					var blocking time.Duration
					blocking, why = replay(c, rs, root, body)
					unattributed = append(unattributed, us(d-blocking))
				}
				if why != "" {
					d = clientTimeout
				}
				t.op(why)
				if rec != nil && tr == nil {
					untraced = append(untraced, ms(d))
				} else {
					lat = append(lat, ms(d))
					done = append(done, time.Since(start).Seconds())
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.done = append(res.done, done...)
			res.untraced = append(res.untraced, untraced...)
			res.unattributed = append(res.unattributed, unattributed...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// post sends one request and reads the whole answer. It returns the
// latency, the body, the X-Ladm-Timeline header and why it failed.
func post(client *http.Client, url string, rs reqSpec, traced bool) (time.Duration, []byte, string, string) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(rs.body))
	if err != nil {
		return 0, nil, "", err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rs.id)
	if traced {
		req.Header.Set(svcobs.TraceparentHeader, svcobs.NewTraceContext().Traceparent())
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return time.Since(start), nil, "", err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	switch {
	case err != nil:
		return d, nil, "", err.Error()
	case resp.StatusCode/100 != 2:
		return d, body, "", fmt.Sprintf("%s: status %d: %.200s", rs.id, resp.StatusCode, body)
	}
	return d, body, resp.Header.Get(svcobs.TimelineHeader), ""
}

// fillRegistry sends sync POST /run requests, cycling through bodies,
// until the worker has registered more jobs than its retention bound
// (sent counts those already registered), so every timed request pays
// the steady-state eviction. check validates the answer to bodies[i].
func fillRegistry(w *worker, client *http.Client, sent int, bodies [][]byte, check func(i int, resp []byte) string) error {
	fill := simsvc.DefaultRetainJobs + 64 - sent
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= fill {
					return
				}
				k := i % len(bodies)
				_, resp, _, why := post(client, w.base+"/run", reqSpec{id: fmt.Sprintf("fill-%d", i), body: bodies[k]}, false)
				if why == "" {
					why = check(k, resp)
				}
				if why != "" {
					errs[c] = why
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			return fmt.Errorf("registry fill: %s", e)
		}
	}
	return nil
}

// setupTimes sets a workload up reps times and returns the median
// set-up time in seconds with the last set-up's worker still running.
func setupTimes(reps int, setup func(rep int) (*worker, error)) (float64, *worker, error) {
	var times []float64
	var w *worker
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			w.stop()
		}
		start := time.Now()
		var err error
		if w, err = setup(rep); err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), w, nil
}

// add folds one phase's accounting into the result; any failed
// operation or campaign error makes the run incorrect, and the first
// reason is printed.
func (r *result) add(t *tally, err error) {
	a, f, first := t.counts()
	r.Attempted += a
	r.Failed += f
	if f > 0 {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %s\n", f, a, first)
	}
	if err != nil {
		r.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// finishTrace writes the traced run's spans as a Chrome trace in the
// work directory and prints the self time of each span name.
func finishTrace(o options, rec *recorder) error {
	rec.writeSelfTimes(os.Stderr)
	path := filepath.Join(o.work, "trace.json")
	if err := rec.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	return nil
}

// duration is how long a serve-* workload's closed loop runs.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// summary is a timed phase's end-to-end figures: its wall time,
// completed operations per second and per-operation latency percentiles
// (ms).
type summary struct {
	wall, opsPerS, p50, p90, p99 float64
}

// serveWindow is the length of the windows a serve-* timed phase is cut
// into.
const serveWindow = time.Second

// windowed summarizes a closed-loop phase window by window: each
// serveWindow of it gets its own throughput and Harrell–Davis
// percentiles, and each figure reported is the median over the windows.
// A slow spell of the shared host that covers less than half of the
// windows therefore does not move it. Requests still in flight at the
// deadline count in the last window, which runs to the phase's end.
func windowed(lr loopResult) summary {
	elapsed := lr.elapsed.Seconds()
	n := max(1, int(elapsed/serveWindow.Seconds()))
	lat := make([][]float64, n)
	for i, l := range lr.lat {
		w := min(n-1, int(lr.done[i]/serveWindow.Seconds()))
		lat[w] = append(lat[w], l)
	}
	var ops, p50, p90, p99 []float64
	for w, ls := range lat {
		length := serveWindow.Seconds()
		if w == n-1 {
			length = elapsed - float64(n-1)*serveWindow.Seconds()
		}
		ops = append(ops, float64(len(ls))/length)
		if len(ls) == 0 {
			continue
		}
		p50 = append(p50, hdQuantile(ls, 0.50))
		p90 = append(p90, hdQuantile(ls, 0.90))
		p99 = append(p99, hdQuantile(ls, 0.99))
	}
	fmt.Fprintf(os.Stderr, "latency over %d requests in %d windows of %v; per-window ops/s %.4g\n",
		len(lr.lat), n, serveWindow, ops)
	pooled := append([]float64(nil), lr.lat...)
	fmt.Fprintf(os.Stderr, "pooled p50/p90/p99_ms: %.6g %.6g %.6g\n",
		hdQuantile(pooled, 0.5), hdQuantile(pooled, 0.9), hdQuantile(pooled, 0.99))
	return summary{wall: elapsed, opsPerS: median(ops), p50: median(p50), p90: median(p90), p99: median(p99)}
}

// endToEnd fills the end-to-end metrics from a workload's set-up time,
// its timed phase and its worker's peak RSS.
func endToEnd(m map[string]metric, setup float64, s summary, rss float64) {
	m["setup_s"] = metric{setup, "s"}
	m["wall_s"] = metric{s.wall, "s"}
	m["ops_per_s"] = metric{s.opsPerS, "1/s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["p50_ms"] = metric{s.p50, "ms"}
	m["p90_ms"] = metric{s.p90, "ms"}
	m["p99_ms"] = metric{s.p99, "ms"}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// extraReplay is a workload's own replays after the shared service ones,
// given the decoded request and record; it returns the time its calls on
// the blocking path took.
type extraReplay func(rec *recorder, track int, rs reqSpec, parent int, req simsvc.Request, run *stats.Run) (time.Duration, string)

// tracedServe is the traced run of a serve-* workload: the closed loop
// on the set-up worker for the whole --seconds, every other request
// traced, with spans, stitched worker timelines and in-process replays
// after every traced request. It returns the per-layer metrics the
// phase measured.
func tracedServe(o options, w *worker, client *http.Client, res *result,
	next func(int) (reqSpec, bool), svcCache *simsvc.Cache, extra extraReplay) (layerMetrics, *recorder, error) {
	rec := &recorder{}
	before, err := w.scrape(client)
	if err != nil {
		return nil, nil, err
	}
	replay := func(track int, rs reqSpec, parent int, body []byte) (time.Duration, string) {
		sp := rec.open(spanReplay, rs.id, track)
		defer rec.finish(sp)
		blocking, req, run, err := serviceReplay(rec, svcCache, rs.id, sp, track, rs.body, body)
		if err != nil {
			return blocking, err.Error()
		}
		if extra == nil {
			return blocking, ""
		}
		d, why := extra(rec, track, rs, sp, req, run)
		return blocking + d, why
	}
	t := &tally{}
	lr := closedLoop(w, client, o.duration(), next, t, rec, replay)
	res.add(t, nil)
	lm := newLayerMetrics()
	lm.serviceLayers(rec)
	if err := lm.workerCounters(w, client, before, int64(len(lr.lat)+len(lr.untraced))); err != nil {
		return nil, nil, err
	}
	lm.set("http.roundtrip_us", rec.medianOf(spanRoundtrip, time.Microsecond))
	lm.set("simsvc.unattributed_us", median(lr.unattributed))
	lm.set("simsvc.response_bytes", median(rec.sizes))
	lm.set("bench.trace_overhead_frac", median(lr.lat)/median(lr.untraced)-1)
	return lm, rec, finishTrace(o, rec)
}
