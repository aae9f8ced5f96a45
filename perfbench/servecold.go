package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ladm/internal/analytic"
	"ladm/internal/arch"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

// The serve-cold key space spans every integer input scale from
// coldMinScale to coldMaxScale: about 85,000 keys, many times what a run
// can ask for.
const coldMinScale, coldMaxScale = 16, 95

// coldResident is the fixed number of records set-up writes to the
// store. Every store miss rescans the whole store directory, so the
// store's size, not the run's length, has to set that cost: the fresh
// records a run writes behind are a small share of it. It also bounds a
// run's keys (each key is asked once, about half of them resident), so
// it is sized for coldHeadroom times the measured throughput.
const coldResident = 8000

// coldMeasuredOpsPerS is serve-cold's ops_per_s as measured on the
// 2-core box the benchmark was sized on, and coldHeadroom the factor of
// it a run's key sequence must still cover (TestColdPlanHeadroom).
const (
	coldMeasuredOpsPerS = 110
	coldHeadroom        = 10
)

// coldKey is one serve-cold request.
type coldKey struct {
	req      simsvc.Request
	resident bool // written to the store in set-up
}

// coldUniverse enumerates the serve-cold key space: every (workload,
// policy, machine) that analytic.AssessJob rates high-confidence, at
// every scale from coldMinScale to coldMaxScale. The rating does not
// depend on the scale (TestColdConfidenceIgnoresScale), so each triple
// is assessed once, at the largest scale, where building the workload
// is cheapest.
func coldUniverse() ([]simsvc.Request, error) {
	var triples []simsvc.Request
	for _, wl := range kernels.Names() {
		for _, pol := range rt.Names() {
			for _, m := range arch.Names() {
				req := simsvc.Request{Workload: wl, Policy: pol, Machine: m, Scale: coldMaxScale,
					Fidelity: simsvc.FidelityAnalytic}
				hc, err := highConfidence(req)
				if err != nil {
					return nil, err
				}
				if hc {
					triples = append(triples, req)
				}
			}
		}
	}
	var out []simsvc.Request
	for _, t := range triples {
		for sc := coldMinScale; sc <= coldMaxScale; sc++ {
			t.Scale = sc
			out = append(out, t.Normalize())
		}
	}
	return out, nil
}

// highConfidence reports whether the analytic tier rates req's job
// high-confidence.
func highConfidence(req simsvc.Request) (bool, error) {
	job, err := req.Resolve()
	if err != nil {
		return false, err
	}
	return analytic.AssessJob(job).Confidence == analytic.ConfidenceHigh, nil
}

// coldPlan splits the key space by seed. The first `resident` keys of a
// seeded permutation are written to the store in set-up and the next one
// fills the job registry; the request sequence then interleaves resident
// and fresh keys by a seeded coin, each key at most once, and ends when
// either kind runs out.
func coldPlan(universe []simsvc.Request, seed int64, resident int) (store []simsvc.Request, fill simsvc.Request, seq []coldKey) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(universe))
	for _, i := range perm[:resident] {
		store = append(store, universe[i])
	}
	fill = universe[perm[resident]]
	asked := append([]simsvc.Request(nil), store...)
	rng.Shuffle(len(asked), func(i, j int) { asked[i], asked[j] = asked[j], asked[i] })
	fresh := perm[resident+1:]
	for r, f := 0, 0; r < len(asked) && f < len(fresh); {
		if rng.Intn(2) == 0 {
			seq = append(seq, coldKey{asked[r], true})
			r++
		} else {
			seq = append(seq, coldKey{universe[fresh[f]], false})
			f++
		}
	}
	return store, fill, seq
}

// writeColdStore writes the analytic record of every store key into a
// fresh store directory through simsvc.DiskStore, the store ladmserve
// opens on -store-dir, and returns each record's digest. It writes
// in-process because through a worker every write is a store miss that
// first rescans the whole directory, which makes pre-population
// quadratic in the store's size.
func writeColdStore(dir string, store []simsvc.Request) (map[simsvc.JobKey]string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ds, err := simsvc.NewDiskStore(dir, 0, "ladmserve", nil)
	if err != nil {
		return nil, err
	}
	digests := make(map[simsvc.JobKey]string, len(store))
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(store) {
					return
				}
				job, err := store[i].Resolve()
				var run *stats.Run
				if err == nil {
					run, err = analytic.Predict(job)
				}
				if err != nil {
					errs[c] = err
					return
				}
				key := store[i].Key()
				ds.PutRun(key, run)
				mu.Lock()
				digests[key] = digest(run)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ds.Close()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("store pre-population: %w", err)
		}
	}
	return digests, nil
}

// populateCold writes the store keys to a fresh store directory and
// starts a worker on it, whose memory is therefore cold. It then brings
// the worker to steady state by asking for the fill key over and over
// (fillRegistry): one more stored record, memory hits after. It returns
// the worker and the digest of each record set-up wrote.
func populateCold(o options, client *http.Client, dir string, store []simsvc.Request, fill simsvc.Request) (*worker, map[simsvc.JobKey]string, error) {
	digests, err := writeColdStore(dir, store)
	if err != nil {
		return nil, nil, err
	}
	w, err := startWorker(o.bin, client, "-store-dir", dir)
	if err != nil {
		return nil, nil, err
	}
	records, err := w.storeRecords(client)
	if err == nil && records != len(store) {
		err = fmt.Errorf("worker's store holds %d records, set-up wrote %d", records, len(store))
	}
	if err == nil {
		var body []byte
		if body, err = json.Marshal(fill); err == nil {
			err = fillRegistry(w, client, 0, [][]byte{body}, func(_ int, resp []byte) string {
				if _, err := decodeRecord(resp); err != nil {
					return err.Error()
				}
				return ""
			})
		}
	}
	if err != nil {
		w.stop()
		return nil, nil, err
	}
	return w, digests, nil
}

// storeRecords reads the worker's durable-store record count.
func (w *worker) storeRecords(client *http.Client) (int, error) {
	m, err := w.scrape(client)
	if err != nil {
		return 0, err
	}
	return int(m["simsvc_store_records"]), nil
}

func decodeRecord(body []byte) (*stats.Run, error) {
	var v simsvc.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if v.Run == nil || v.Run.Run == nil {
		return nil, fmt.Errorf("job %s (%s) has no record", v.ID, v.Status)
	}
	return v.Run.Run, nil
}

// coldAnswers collects the timed loop's responses; they are checked
// after the loop, where predicting every record costs no timed CPU.
type coldAnswers struct {
	mu   sync.Mutex
	keys []coldKey
	body [][]byte
}

func (a *coldAnswers) keep(k coldKey, body []byte) string {
	a.mu.Lock()
	a.keys = append(a.keys, k)
	a.body = append(a.body, body)
	a.mu.Unlock()
	return ""
}

// verify checks every collected answer: a store-resident record must be
// the one set-up wrote, a fresh one must equal an in-process Predict of
// the same job. Mismatches fail their operation.
func (a *coldAnswers) verify(t *tally, written map[simsvc.JobKey]string) {
	for i, k := range a.keys {
		why := ""
		run, err := decodeRecord(a.body[i])
		switch {
		case err != nil:
			why = err.Error()
		case k.resident:
			if digest(run) != written[k.req.Key()] {
				why = fmt.Sprintf("%+v: store record differs from the one set-up wrote", k.req)
			}
		default:
			job, err := k.req.Resolve()
			var want *stats.Run
			if err == nil {
				want, err = analytic.Predict(job)
			}
			if err != nil {
				why = err.Error()
			} else if digest(run) != digest(want) {
				why = fmt.Sprintf("%+v: record differs from analytic.Predict", k.req)
			}
		}
		if why != "" {
			t.fail(why)
		}
	}
	a.keys, a.body = nil, nil
}

func runServeCold(o options) (*result, error) {
	universe, err := coldUniverse()
	if err != nil {
		return nil, err
	}
	store, fill, seq := coldPlan(universe, o.seed, coldResident)
	client := newClient(clients, clientTimeout)
	var written map[simsvc.JobKey]string
	dir := filepath.Join(o.work, "store")
	setup, w, err := setupTimes(serveSetupReps, func(int) (*worker, error) {
		var w *worker
		w, written, err = populateCold(o, client, dir, store, fill)
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

	answers := &coldAnswers{}
	var cursor atomic.Int64
	next := func(int) (reqSpec, bool) {
		i := int(cursor.Add(1)) - 1
		if i >= len(seq) {
			return reqSpec{}, false
		}
		k := seq[i]
		body, _ := json.Marshal(k.req)
		return reqSpec{id: fmt.Sprintf("cold-%d", i), body: body,
			check: func(b []byte) string { return answers.keep(k, b) }}, true
	}
	startRecords, err := w.storeRecords(client)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var lm layerMetrics
	var lr loopResult
	if o.trace {
		lm, err = tracedCold(o, w, client, dir, res, next)
	} else {
		t := &tally{}
		lr = closedLoop(w, client, o.duration(), next, t, nil, nil)
		res.add(t, nil)
	}
	if err != nil {
		return nil, err
	}
	// Verification adds failures only: the loop already counted its
	// attempts.
	vt := &tally{}
	answers.verify(vt, written)
	res.add(vt, exhausted(cursor.Load(), len(seq)))
	endRecords, err := w.storeRecords(client)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "store: %d records at the start of the timed phase, %d at its end (+%.1f%%); %d of %d planned keys used\n",
		startRecords, endRecords, 100*float64(endRecords-startRecords)/float64(startRecords), min(cursor.Load(), int64(len(seq))), len(seq))
	if o.trace {
		lm.set("simstore.records", float64(endRecords))
		lm.set("simstore.records_added", float64(endRecords-startRecords))
		res.Metrics = lm
		return res, nil
	}
	endToEnd(res.Metrics, setup, windowed(lr), rss)
	return res, nil
}

// tracedCold is serve-cold's traced phase: the shared service replays
// plus the store and analytic-tier calls of each request, the store
// ones on a copy of the worker's store directory taken as the phase
// starts.
func tracedCold(o options, w *worker, client *http.Client, dir string, res *result, next func(int) (reqSpec, bool)) (layerMetrics, error) {
	cp := filepath.Join(o.work, "store-copy")
	if err := copyDir(dir, cp); err != nil {
		return nil, err
	}
	ds, err := simsvc.NewDiskStore(cp, 0, "perfbench", nil)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	extra := func(rec *recorder, track int, rs reqSpec, parent int, req simsvc.Request, run *stats.Run) (time.Duration, string) {
		key := req.Key()
		var blocking time.Duration
		var hit bool
		blocking += rec.timed(spanStoreGet, rs.id, parent, track, func() { _, hit = ds.GetRun(key) })
		if hit {
			return blocking, ""
		}
		blocking += rec.timed(spanRescan, rs.id, parent, track, func() { ds.Rescan() })
		job, err := req.Resolve()
		if err != nil {
			return blocking, err.Error()
		}
		tier := &analytic.Runner{Scale: req.Scale}
		blocking += rec.timed(spanAssess, rs.id, parent, track, func() { tier.Assess(job) })
		var pred *stats.Run
		blocking += rec.timed(spanPredict, rs.id, parent, track, func() { pred, err = analytic.Predict(job) })
		if err != nil {
			return blocking, err.Error()
		}
		payload, err := json.Marshal(pred)
		if err != nil {
			return blocking, err.Error()
		}
		// The worker writes behind the response, so the put is timed but
		// not on the request's blocking path.
		prov := stats.NewProvenance("perfbench")
		prov.Tier, prov.Confidence = pred.Tier, pred.Confidence
		rec.timed(spanStorePut, rs.id, parent, track, func() { ds.Store.Put(key.String(), payload, prov) })
		return blocking, ""
	}
	lm, rec, err := tracedServe(o, w, client, res, next, simsvc.NewCache(nil), extra)
	if err != nil {
		return nil, err
	}
	lm.set("analytic.assess_us", rec.medianOf(spanAssess, time.Microsecond))
	lm.set("analytic.predict_us", rec.medianOf(spanPredict, time.Microsecond))
	lm.set("simstore.get_us", rec.medianOf(spanStoreGet, time.Microsecond))
	lm.set("simstore.rescan_us", rec.medianOf(spanRescan, time.Microsecond))
	lm.set("simstore.put_us", rec.medianOf(spanStorePut, time.Microsecond))
	return lm, nil
}

// exhausted reports a run that used up its key sequence before its time
// was over: it then measured less than asked, which the key space must
// be sized to prevent.
func exhausted(used int64, n int) error {
	if used > int64(n) {
		return fmt.Errorf("serve-cold ran out of distinct keys (%d); enlarge the key space", n)
	}
	return nil
}

// copyDir copies a store directory tree.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
}
