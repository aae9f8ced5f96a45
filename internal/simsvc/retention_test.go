package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/stats"
)

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return r, data
}

func TestRetentionMaxJobsEvictsOldestFinished(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)
	srv.SetRetention(2, 0)

	// Distinct scales defeat the cache; each submission registers then
	// triggers eviction of the oldest finished records beyond the cap.
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8 + i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status = %d: %s", i, resp.StatusCode, body)
		}
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	_, job1 := srv.jobs["job-000001"]
	_, job4 := srv.jobs["job-000004"]
	srv.mu.Unlock()
	if n != 2 {
		t.Errorf("registry size = %d, want 2", n)
	}
	if job1 {
		t.Error("oldest job survived eviction")
	}
	if !job4 {
		t.Error("newest job was evicted")
	}

	r, _ := getBody(t, ts.URL+"/jobs/job-000001")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status = %d, want 404", r.StatusCode)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "simsvc_jobs_evicted_total 2") {
		t.Errorf("evicted counter wrong:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "simsvc_tracked_jobs 2") {
		t.Errorf("tracked-jobs gauge wrong:\n%s", metrics)
	}
}

func TestRetentionTTLDropsStaleRecords(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)
	srv.SetRetention(0, time.Hour)

	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8})
	// Age the finished record past the TTL by hand (the registry only
	// evicts at registration time, so no sleeping needed).
	srv.mu.Lock()
	srv.jobs["job-000001"].finished = time.Now().Add(-2 * time.Hour)
	srv.mu.Unlock()

	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 9})
	srv.mu.Lock()
	_, stale := srv.jobs["job-000001"]
	_, fresh := srv.jobs["job-000002"]
	srv.mu.Unlock()
	if stale {
		t.Error("record older than the TTL survived")
	}
	if !fresh {
		t.Error("fresh record was evicted")
	}
}

func TestRetentionNeverEvictsInFlightJobs(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 16)
	release := make(chan struct{})
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 8,
		Simulate: blockingSim(&calls, started, release)})
	defer pool.Close()
	srv := NewServer(pool)
	srv.SetRetention(1, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Three jobs: one blocked in the simulator, two queued behind it.
	// All exceed the cap of 1, but none is finished, so none may go.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/run",
			map[string]any{"workload": "vecadd", "scale": 8 + i, "async": true})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status = %d: %s", i, resp.StatusCode, body)
		}
	}
	<-started
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 3 {
		t.Fatalf("in-flight registry size = %d, want 3 (eviction touched live jobs?)", n)
	}

	close(release)
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, rec := range srv.jobs {
			if !finishedStatus(rec.status) {
				return false
			}
		}
		return true
	})
	// The next registration trims the finished backlog down to the cap.
	postJSON(t, ts.URL+"/run", map[string]any{"workload": "vecadd", "scale": 20, "async": true})
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.jobs) <= 1+1 // cap + possibly-unfinished newcomer
	})
}

// TestTelemetryEndpoint drives a real simulation with telemetry enabled
// and reads every view of /jobs/{id}/telemetry.
func TestTelemetryEndpoint(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/run",
		Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Cached {
		t.Fatalf("view = %+v", v)
	}
	if v.Run == nil || v.Run.Telemetry == nil {
		t.Fatal("record carries no telemetry summary")
	}

	// Default JSON view: summary + full series + trace-event count.
	r, data := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("telemetry: status = %d: %s", r.StatusCode, data)
	}
	var tv TelemetryView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if tv.Summary == nil || tv.Summary.Samples <= 0 {
		t.Errorf("summary = %+v", tv.Summary)
	}
	if tv.Series == nil || len(tv.Series.Samples) != tv.Summary.Samples {
		t.Errorf("series = %+v", tv.Series)
	}
	if tv.TraceEvents <= 0 || tv.Cached {
		t.Errorf("view = %+v", tv)
	}

	// CSV view.
	r, data = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=csv")
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("csv: status = %d type %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	if !strings.HasPrefix(string(data), "cycle,") {
		t.Errorf("csv header: %.80s", data)
	}

	// Trace view: valid Chrome trace JSON.
	r, data = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: status = %d", r.StatusCode)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != tv.TraceEvents {
		t.Errorf("trace has %d events, view reported %d", len(trace.TraceEvents), tv.TraceEvents)
	}

	// Unknown view.
	r, _ = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=bogus")
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus view: status = %d, want 400", r.StatusCode)
	}

	// Telemetry jobs join the service metrics.
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "simsvc_telemetry_jobs_total 1") {
		t.Errorf("telemetry job counter missing:\n%s", metrics)
	}
}

// TestTelemetryEndpointCachedJob: an identical telemetry request is
// served from the cache — the shared summary survives, the series and
// trace do not.
func TestTelemetryEndpointCachedJob(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true}
	postJSON(t, ts.URL+"/run", req)
	_, body := postJSON(t, ts.URL+"/run", req)
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatalf("second run not cached: %+v", v)
	}

	r, data := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("telemetry: status = %d", r.StatusCode)
	}
	var tv TelemetryView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if !tv.Cached || tv.Summary == nil || tv.Series != nil || tv.TraceEvents != 0 {
		t.Errorf("cached telemetry view = %+v", tv)
	}
	r, _ = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=csv")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("cached csv view: status = %d, want 404", r.StatusCode)
	}
	r, _ = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=trace")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("cached trace view: status = %d, want 404", r.StatusCode)
	}
}

func TestTelemetryEndpointNonTelemetryJob(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	_, body := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	r, data := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", r.StatusCode)
	}
	if !strings.Contains(string(data), "telemetry") {
		t.Errorf("404 body should hint at the telemetry flag: %s", data)
	}
	r, _ = getBody(t, ts.URL+"/jobs/job-999999/telemetry")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", r.StatusCode)
	}
}

// TestTelemetryChangesCacheKey: the same cell with and without telemetry
// must not share a cache entry, or an unsampled run would satisfy a
// sampled request.
func TestTelemetryChangesCacheKey(t *testing.T) {
	plain := Request{Workload: "vecadd", Scale: 8}.Normalize()
	sampled := Request{Workload: "vecadd", Scale: 8, Telemetry: true}.Normalize()
	if plain.Key() == sampled.Key() {
		t.Error("telemetry flag does not separate cache keys")
	}
}

// oracleRec is one registered job as the retention oracle sees it.
type oracleRec struct {
	id       string
	done     bool
	finished time.Time
}

// sortOracleEvict is the retention rule the finish queue replaced, kept
// as the reference: drop every finished record past the TTL, then
// collect and sort the finished records (oldest completion first, ids
// breaking ties) and drop from the front until the registry fits.
func sortOracleEvict(jobs map[string]*oracleRec, max int, ttl time.Duration, now time.Time) int {
	evicted := 0
	if ttl > 0 {
		for id, rec := range jobs {
			if rec.done && now.Sub(rec.finished) > ttl {
				delete(jobs, id)
				evicted++
			}
		}
	}
	if max > 0 && len(jobs) > max {
		var done []*oracleRec
		for _, rec := range jobs {
			if rec.done {
				done = append(done, rec)
			}
		}
		sort.Slice(done, func(i, j int) bool {
			if !done[i].finished.Equal(done[j].finished) {
				return done[i].finished.Before(done[j].finished)
			}
			return done[i].id < done[j].id
		})
		for _, rec := range done {
			if len(jobs) <= max {
				break
			}
			delete(jobs, rec.id)
			evicted++
		}
	}
	return evicted
}

// TestRetentionQueueMatchesSortOracle drives the registry with seeded
// random traffic — interleaved registrations, out-of-order completions,
// long-lived in-flight jobs, TTL ageing of the oldest finished record and
// retention changes partway through — and checks after every
// registration that the finish queue evicted exactly what the
// collect-and-sort rule would have.
func TestRetentionQueueMatchesSortOracle(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 1, Simulate: fakeSim(new(atomic.Int64))})
	defer pool.Close()
	srv := NewServer(pool)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(13, 2020))

	oracle := map[string]*oracleRec{}
	var oracleEvicted int64
	var inflight []*jobRecord
	// Completions get strictly increasing synthetic finish times, so the
	// oracle's tie-break never decides; aged records sit two hours back.
	base := time.Now()
	clock := base
	maxJobs, ttl := 8, time.Duration(0)
	srv.SetRetention(maxJobs, ttl)

	for step := 0; step < 4000; step++ {
		finishes := rng.IntN(3)
		if len(inflight) > 40 {
			finishes += 2
		}
		for ; finishes > 0 && len(inflight) > 0; finishes-- {
			i := rng.IntN(len(inflight))
			rec := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			var err error
			switch rng.IntN(6) {
			case 0:
				err = errors.New("simulated failure")
			case 1:
				err = context.Canceled
			}
			srv.finishJob(ctx, rec, &stats.Run{}, false, err)
			clock = clock.Add(time.Microsecond)
			srv.mu.Lock()
			rec.finished = clock
			srv.mu.Unlock()
			if o := oracle[rec.id]; o != nil {
				o.done, o.finished = true, clock
			}
		}
		if rng.IntN(40) == 0 {
			// Age the oldest finished record past any TTL, unless it is
			// already aged (ageing it again would reorder the aged prefix).
			var oldest *oracleRec
			for _, o := range oracle {
				if o.done && (oldest == nil || o.finished.Before(oldest.finished)) {
					oldest = o
				}
			}
			if oldest != nil && oldest.finished.After(base) {
				oldest.finished = clock.Add(-2 * time.Hour)
				srv.mu.Lock()
				srv.jobs[oldest.id].finished = oldest.finished
				srv.mu.Unlock()
			}
		}
		if rng.IntN(150) == 0 {
			maxJobs = []int{0, 1, 3, 8, 50}[rng.IntN(5)]
			ttl = []time.Duration{0, time.Hour}[rng.IntN(2)]
			srv.SetRetention(maxJobs, ttl)
		}

		rec := srv.register(ctx, Request{Workload: "vecadd", Scale: 8}.Normalize())
		inflight = append(inflight, rec)
		oracle[rec.id] = &oracleRec{id: rec.id}
		oracleEvicted += int64(sortOracleEvict(oracle, maxJobs, ttl, time.Now()))

		srv.mu.Lock()
		got := make([]string, 0, len(srv.jobs))
		finished := 0
		for id, r := range srv.jobs {
			got = append(got, id)
			if finishedStatus(r.status) {
				finished++
			}
		}
		queued, backing := len(srv.done)-srv.doneHead, len(srv.done)
		// Popped and compacted-away slots must not pin evicted records.
		stale := slices.ContainsFunc(srv.done[:srv.doneHead], isRecord) ||
			slices.ContainsFunc(srv.done[len(srv.done):cap(srv.done)], isRecord)
		srv.mu.Unlock()
		want := make([]string, 0, len(oracle))
		for id := range oracle {
			want = append(want, id)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (max %d, ttl %v): registry %v, oracle %v", step, maxJobs, ttl, got, want)
		}
		if ev := pool.Metrics().evicted.Load(); ev != oracleEvicted {
			t.Fatalf("step %d: evicted counter %d, oracle %d", step, ev, oracleEvicted)
		}
		if stale {
			t.Fatalf("step %d: the queue's dead slots still reference records", step)
		}
		if queued != finished || backing > 2*finished {
			t.Fatalf("step %d: queue holds %d (backing %d), registry has %d finished records",
				step, queued, backing, finished)
		}
	}
	if oracleEvicted == 0 {
		t.Fatal("traffic never triggered an eviction")
	}
}

func isRecord(rec *jobRecord) bool { return rec != nil }

// TestIDOrderPastAMillion: ids are zero-padded to six digits, so past
// 10^6 their strings no longer sort in registration order
// ("job-1000000" < "job-999999"). GET /jobs and sweep eviction must
// follow the numeric sequence.
func TestIDOrderPastAMillion(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8})
	srv.mu.Lock()
	srv.nextID = 999998
	srv.mu.Unlock()
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8})
	}
	_, body := getBody(t, ts.URL+"/jobs")
	var views []JobView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, v := range views {
		ids = append(ids, v.ID)
	}
	want := []string{"job-000001", "job-999999", "job-1000000", "job-1000001"}
	if !slices.Equal(ids, want) {
		t.Errorf("GET /jobs order = %v, want %v", ids, want)
	}

	// Fill the sweep registry to its bound with finished sweeps whose ids
	// cross 10^6; the next registration must evict the oldest one.
	srv.mu.Lock()
	srv.nextSweep = 999998
	srv.mu.Unlock()
	for i := 0; i <= retainSweeps; i++ {
		sw := srv.registerSweep(nil)
		sw.mu.Lock()
		sw.finished = time.Now()
		sw.mu.Unlock()
	}
	srv.mu.Lock()
	_, oldest := srv.sweeps["sweep-999999"]
	_, next := srv.sweeps["sweep-1000000"]
	n := len(srv.sweeps)
	srv.mu.Unlock()
	if n != retainSweeps {
		t.Errorf("sweep registry holds %d, want %d", n, retainSweeps)
	}
	if oldest || !next {
		t.Errorf("sweep eviction kept sweep-999999=%v, sweep-1000000=%v; want the oldest evicted", oldest, next)
	}
}
