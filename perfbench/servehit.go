package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"

	"ladm/internal/analytic"
	"ladm/internal/kernels"
	"ladm/internal/simsvc"
)

// hitScale is the input scale of every serve-hit key.
const hitScale = 32

// hitEventCells are the warm set's event-tier keys: cells that simulate
// in tens of milliseconds and allocate under 10 MB each, so warming
// neither dominates set-up time nor sets the worker's peak RSS.
var hitEventCells = []struct{ workload, policy string }{
	{"vecadd", "ladm"}, {"vecadd", "h-coda"},
	{"scalarprod", "ladm"}, {"scalarprod", "lasp+ronce"},
	{"reduction-k6", "ladm"}, {"histo-final", "ladm"},
	{"blk", "ladm"}, {"srad", "lasp+rtwice"}, {"hs", "ladm"},
}

// hitAnalyticKeys is how many high-confidence analytic keys join the
// warm set.
const hitAnalyticKeys = 24

// warmKey is one warm-set request and the record it answered with.
type warmKey struct {
	req  simsvc.Request
	body []byte
	// tail is the response from its "run" field on: the record, which a
	// cache hit must return byte for byte. The fields before it (job id,
	// wall time, cached flag) legitimately differ per request.
	tail   []byte
	keyHex string
}

// hitWarmSet is the fixed warm set: the event cells above plus the
// first high-confidence (workload, policy) pairs on the hierarchical
// machine, in registry order.
func hitWarmSet() ([]simsvc.Request, error) {
	var reqs []simsvc.Request
	for _, c := range hitEventCells {
		reqs = append(reqs, simsvc.Request{Workload: c.workload, Policy: c.policy, Machine: "hier", Scale: hitScale})
	}
	n := 0
	for _, wl := range kernels.Names() {
		for _, pn := range []string{"ladm", "lasp+ronce"} {
			req := simsvc.Request{Workload: wl, Policy: pn, Machine: "hier", Scale: hitScale,
				Fidelity: simsvc.FidelityAnalytic}
			job, err := req.Resolve()
			if err != nil {
				return nil, err
			}
			if analytic.AssessJob(job).Confidence != analytic.ConfidenceHigh || n == hitAnalyticKeys {
				continue
			}
			reqs = append(reqs, req)
			n++
		}
	}
	if n < hitAnalyticKeys {
		return nil, fmt.Errorf("only %d high-confidence analytic keys for the warm set", n)
	}
	return reqs, nil
}

// recordTail returns body from its "run" field on, or nil.
func recordTail(body []byte) []byte {
	i := bytes.Index(body, []byte(`"run":`))
	if i < 0 {
		return nil
	}
	return body[i:]
}

// hitPicker draws warm-set indices for each client from its own stream
// seeded by (seed, client), so the sequence each client sends is
// fixed by the seed.
func hitPicker(seed int64, n int) func(client int) int {
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	}
	return func(client int) int { return rngs[client].Intn(n) }
}

// warmHit starts a worker, computes every warm key once, and brings it
// to steady state with cache hits (fillRegistry).
func warmHit(o options, client *http.Client, reqs []simsvc.Request) (*worker, []warmKey, error) {
	w, err := startWorker(o.bin, client)
	if err != nil {
		return nil, nil, err
	}
	warm := make([]warmKey, len(reqs))
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			w.stop()
			return nil, nil, err
		}
		_, resp, _, why := post(client, w.base+"/run", reqSpec{id: fmt.Sprintf("warm-%d", i), body: body}, false)
		tail := recordTail(resp)
		if why == "" && (tail == nil || bytes.Contains(resp, []byte(`"cached": true`))) {
			why = fmt.Sprintf("warm-up of %+v: no fresh record", req)
		}
		if why != "" {
			w.stop()
			return nil, nil, fmt.Errorf("warm-up: %s", why)
		}
		warm[i] = warmKey{req: req, body: body, tail: append([]byte(nil), tail...), keyHex: req.Key().String()}
	}
	bodies := make([][]byte, len(warm))
	for i := range warm {
		bodies[i] = warm[i].body
	}
	if err := fillRegistry(w, client, len(warm), bodies, func(i int, resp []byte) string {
		return warm[i].check(resp)
	}); err != nil {
		w.stop()
		return nil, nil, err
	}
	return w, warm, nil
}

// check verifies a cache-hit response for this key.
func (k *warmKey) check(body []byte) string {
	switch {
	case !bytes.Contains(body, []byte(`"key": "`+k.keyHex+`"`)):
		return fmt.Sprintf("%s/%s: response for another key", k.req.Workload, k.req.Policy)
	case !bytes.Contains(body, []byte(`"cached": true`)):
		return fmt.Sprintf("%s/%s: not served from the cache", k.req.Workload, k.req.Policy)
	case !bytes.Equal(recordTail(body), k.tail):
		return fmt.Sprintf("%s/%s: record differs from the warm-up record", k.req.Workload, k.req.Policy)
	}
	return ""
}

func runServeHit(o options) (*result, error) {
	reqs, err := hitWarmSet()
	if err != nil {
		return nil, err
	}
	client := newClient(clients, clientTimeout)
	var warm []warmKey
	setup, w, err := setupTimes(serveSetupReps, func(int) (*worker, error) {
		var w *worker
		w, warm, err = warmHit(o, client, reqs)
		return w, err
	})
	if err != nil {
		return nil, err
	}
	defer w.stop()
	// The worker's peak RSS through set-up, which sends a fixed number
	// of requests. The service tracer's event ring still grows with
	// every request the timed phase serves, so a peak read after it
	// would grow with ops_per_s.
	rss, err := w.peakRSSMB()
	if err != nil {
		return nil, err
	}
	pick := hitPicker(o.seed, len(warm))
	var seq atomic.Int64
	next := func(c int) (reqSpec, bool) {
		k := &warm[pick(c)]
		return reqSpec{id: fmt.Sprintf("hit-%d", seq.Add(1)), body: k.body, check: k.check}, true
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if o.trace {
		lm, _, err := tracedServe(o, w, client, res, next, simsvc.NewCache(nil), nil)
		res.Metrics = lm
		return res, err
	}
	t := &tally{}
	lr := closedLoop(w, client, o.duration(), next, t, nil, nil)
	res.add(t, nil)
	endToEnd(res.Metrics, setup, windowed(lr), rss)
	return res, nil
}
