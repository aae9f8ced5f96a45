package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	goruntime "runtime"
	"slices"
	"time"

	"ladm/internal/core"
	"ladm/internal/experiments"
	"ladm/internal/fleet"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// fig9Scale is the input scale divisor of the fig9-fleet campaign.
const fig9Scale = 64

// How many times a workload sets up per run; setup_s is the median. A
// fig9-fleet set-up is a process start; a serve-* set-up also warms the
// worker and fills its registry (and, for serve-cold, writes the store),
// a few seconds each.
const (
	fig9SetupReps  = 9
	serveSetupReps = 3
)

// fig9Reps is how many times an untraced fig9-fleet run sends the whole
// campaign, each time to a fresh worker. The work is deterministic, so
// it can only measure slower when the shared host interferes: a cell's
// latency is its fastest of the campaigns and wall_s the faster
// campaign's wall.
const fig9Reps = 2

// fig9Ref is the reference output of the campaign at this scale: one
// digest per cell record, in campaign order, and the rendered table.
type fig9Ref struct {
	Scale int       `json:"scale"`
	Cells []cellRef `json:"cells"`
}

type cellRef struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Arch     string `json:"arch"`
	SHA256   string `json:"sha256"`
}

//go:embed testdata/fig9_scale64.json
var fig9RefJSON []byte

//go:embed testdata/fig9_scale64_table.txt
var fig9RefTable string

func loadFig9Ref() (*fig9Ref, error) {
	var ref fig9Ref
	if err := json.Unmarshal(fig9RefJSON, &ref); err != nil {
		return nil, fmt.Errorf("fig9 reference: %w", err)
	}
	if ref.Scale != fig9Scale || len(ref.Cells) == 0 {
		return nil, errors.New("fig9 reference does not match the campaign")
	}
	return &ref, nil
}

// digest is the SHA-256 of a record's canonical JSON encoding.
func digest(run *stats.Run) string {
	b, err := json.Marshal(run)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkCell compares a cell record with its reference entry.
func (ref *fig9Ref) checkCell(i int, run *stats.Run) string {
	if i >= len(ref.Cells) {
		return fmt.Sprintf("cell %d beyond the %d reference cells", i, len(ref.Cells))
	}
	c := ref.Cells[i]
	if run.Workload != c.Workload || run.Policy != c.Policy || run.Arch != c.Arch {
		return fmt.Sprintf("cell %d is %s/%s/%s, reference has %s/%s/%s",
			i, run.Workload, run.Policy, run.Arch, c.Workload, c.Policy, c.Arch)
	}
	if d := digest(run); d != c.SHA256 {
		return fmt.Sprintf("cell %d (%s/%s) record digest %s differs from reference %s",
			i, c.Workload, c.Policy, d[:12], c.SHA256[:12])
	}
	return ""
}

// refuseLocal is the fleet's degrade target: it never runs a job, so a
// degrade fails the cell loudly instead of quietly moving the campaign
// onto this process.
type refuseLocal struct{}

func (refuseLocal) Sweep(context.Context, []core.Job) ([]*stats.Run, error) {
	return nil, errors.New("degrade-to-local refused by the benchmark")
}

// cellRunner is the campaign's simsvc.Runner: it sends the cells one at
// a time through the fleet dispatcher, timing and checking each.
type cellRunner struct {
	fl    *fleet.Runner
	ref   *fig9Ref
	tally *tally
	lat   []float64 // per-cell ExecRequest wall, ms

	// Traced runs only.
	rec      *recorder
	w        *worker
	client   *http.Client
	svcCache *simsvc.Cache
	counts   []simCounts
	sim      []*stats.Run
	// base serves every fig9BaselineEvery-th cell untraced, on a worker of
	// its own, next to the traced call: baseLat and pairedLat are the
	// untraced and traced latencies of those cells.
	base      *fleet.Runner
	baseLat   []float64
	pairedLat []float64
}

// fig9BaselineEvery spaces the traced run's untraced baseline cells.
const fig9BaselineEvery = 4

func (c *cellRunner) Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error) {
	runs := make([]*stats.Run, len(jobs))
	for i, job := range jobs {
		req, ok := simsvc.RequestForJob(job, fig9Scale)
		if !ok {
			return nil, fmt.Errorf("cell %d (%s) is not a registry-named job", i, job.Workload.Name)
		}
		run, err := c.cell(ctx, i, req, job)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

// exec sends one cell through fl and checks it: a transport or job
// error, a fleet retry, hedge or degrade, or a record that differs from
// the reference fails it.
func (c *cellRunner) exec(ctx context.Context, fl *fleet.Runner, i int, req simsvc.Request, job core.Job) (*stats.Run, time.Duration, string, error) {
	before := fl.Snapshot()
	start := time.Now()
	run, err := fl.ExecRequest(ctx, req, job)
	elapsed := time.Since(start)
	after := fl.Snapshot()
	switch {
	case err != nil:
		return nil, elapsed, err.Error(), err
	case after.Retries != before.Retries || after.Hedges != before.Hedges ||
		after.DegradedJobs != before.DegradedJobs:
		return run, elapsed, fmt.Sprintf("cell %d needed a fleet retry, hedge or degrade", i), nil
	}
	return run, elapsed, c.ref.checkCell(i, run), nil
}

func (c *cellRunner) cell(ctx context.Context, i int, req simsvc.Request, job core.Job) (*stats.Run, error) {
	reqID := fmt.Sprintf("cell-%03d", i)
	paired := c.base != nil && i%fig9BaselineEvery == 0
	// The untraced twin runs before the traced call for every other
	// pair and after it for the rest, so going second biases neither.
	baseFirst := i/fig9BaselineEvery%2 == 0
	untraced := ctx
	baseline := func() error {
		_, d, why, err := c.exec(untraced, c.base, i, req, job)
		c.tally.op(why)
		c.baseLat = append(c.baseLat, ms(d))
		return err
	}
	if paired && baseFirst {
		if err := baseline(); err != nil {
			return nil, err
		}
	}
	if c.rec != nil {
		// A trace context makes the dispatcher send traceparent, so the
		// worker records and returns its stage timeline; the request ID
		// indexes that timeline on the worker.
		ctx = svcobs.WithTraceContext(svcobs.WithRequestID(ctx, reqID), svcobs.NewTraceContext())
	}
	root := c.rec.open(spanExec, reqID, 0)
	run, elapsed, why, err := c.exec(ctx, c.fl, i, req, job)
	c.rec.finish(root)
	c.lat = append(c.lat, ms(elapsed))
	if paired {
		c.pairedLat = append(c.pairedLat, ms(elapsed))
		if !baseFirst && err == nil {
			err = baseline()
		}
	}
	if err == nil && c.rec != nil {
		if rerr := c.replay(i, reqID, root, req, job, run); rerr != "" && why == "" {
			why = rerr
		}
		// Collect the replay's garbage now, so this process's collector
		// does not compete with the next timed call for the CPUs.
		goruntime.GC()
	}
	c.tally.op(why)
	if err != nil {
		return nil, err
	}
	return run, nil
}

// replay stitches the worker's stage timeline under the cell's span and
// re-runs the service and simulator layers in-process. The replayed
// engine record must match the reference exactly.
func (c *cellRunner) replay(i int, reqID string, root int, req simsvc.Request, job core.Job, run *stats.Run) string {
	// The pull twin of the X-Ladm-Timeline header: the same summary,
	// fetched after the timed call so the dispatcher stays untouched.
	body, err := c.w.get(c.client, "/debug/timeline/"+reqID)
	if err != nil {
		return "timeline: " + err.Error()
	}
	var ts svcobs.TimelineSummary
	if err := json.Unmarshal(body, &ts); err != nil {
		return "timeline: " + err.Error()
	}
	stitchSummary(c.rec, &ts, reqID, root, 0)
	reqBody, err := json.Marshal(req)
	if err != nil {
		return err.Error()
	}
	payload := simsvc.NewRunPayload(run)
	respBody, err := json.Marshal(simsvc.JobView{Key: req.Key().String(), Status: simsvc.StatusDone,
		Request: req, Run: &payload})
	if err != nil {
		return err.Error()
	}
	sp := c.rec.open(spanReplay, reqID, 0)
	defer c.rec.finish(sp)
	if _, _, _, err := serviceReplay(c.rec, c.svcCache, reqID, sp, 0, reqBody, respBody); err != nil {
		return err.Error()
	}
	simRun, counts, err := simulatorReplay(c.rec, reqID, sp, 0, job)
	if err != nil {
		return err.Error()
	}
	c.counts = append(c.counts, counts)
	c.sim = append(c.sim, simRun)
	if why := c.ref.checkCell(i, simRun); why != "" {
		return "in-process replay: " + why
	}
	return ""
}

// newFleet is the campaign's dispatcher to one worker, hedging off.
func newFleet(w *worker, client *http.Client) (*fleet.Runner, error) {
	return fleet.New(fleet.Config{
		Endpoints:  []string{w.addr},
		Local:      refuseLocal{},
		Scale:      fig9Scale,
		Client:     client,
		HedgeAfter: -1,
	})
}

// fig9Campaign runs the whole Fig. 9 campaign against one worker and
// checks every cell and the rendered table. With a baseline worker the
// campaign is traced, and the baseline serves the untraced cells it is
// compared with.
func fig9Campaign(w *worker, client *http.Client, ref *fig9Ref, baseline *worker) (*cellRunner, time.Duration, fleet.Snapshot, error) {
	fl, err := newFleet(w, client)
	if err != nil {
		return nil, 0, fleet.Snapshot{}, err
	}
	defer fl.Close()
	cr := &cellRunner{fl: fl, ref: ref, tally: &tally{}}
	if baseline != nil {
		if cr.base, err = newFleet(baseline, client); err != nil {
			return nil, 0, fleet.Snapshot{}, err
		}
		defer cr.base.Close()
		cr.rec, cr.w, cr.client, cr.svcCache = &recorder{}, w, client, simsvc.NewCache(nil)
	}
	start := time.Now()
	res, err := experiments.Fig9(experiments.Options{Scale: fig9Scale, Runner: cr})
	wall := time.Since(start)
	if err == nil && res.Text != fig9RefTable {
		err = errors.New("rendered Fig. 9 table differs from testdata/fig9_scale64_table.txt")
	}
	if err == nil && len(cr.lat) != len(ref.Cells) {
		err = fmt.Errorf("campaign ran %d cells, reference has %d", len(cr.lat), len(ref.Cells))
	}
	return cr, wall, fl.Snapshot(), err
}

// fig9Untraced sends the campaign fig9Reps times, the first time to the
// set-up's worker w and then each time to a fresh one, and summarizes
// them: wall_s is the fastest campaign's wall, the percentiles come from
// each cell's fastest latency, and the peak RSS is the median over the
// workers.
func fig9Untraced(o options, w *worker, client *http.Client, ref *fig9Ref, res *result) (summary, float64, error) {
	cellLat := make([][]float64, len(ref.Cells))
	var walls, rss []float64
	for rep := 0; rep < fig9Reps; rep++ {
		if rep > 0 {
			var err error
			if w, err = startWorker(o.bin, client, "-workers", "1"); err != nil {
				return summary{}, 0, err
			}
		}
		cr, wall, _, cerr := fig9Campaign(w, client, ref, nil)
		peak, rerr := w.peakRSSMB()
		w.stop()
		if cr == nil {
			return summary{}, 0, cerr
		}
		if rerr != nil {
			return summary{}, 0, rerr
		}
		res.add(cr.tally, cerr)
		walls = append(walls, wall.Seconds())
		rss = append(rss, peak)
		for i := range min(len(cr.lat), len(cellLat)) {
			cellLat[i] = append(cellLat[i], cr.lat[i])
		}
	}
	var lat []float64
	for _, ls := range cellLat {
		if len(ls) > 0 {
			lat = append(lat, slices.Min(ls))
		}
	}
	wall := slices.Min(walls)
	fmt.Fprintf(os.Stderr, "campaign walls (s): %.4g; latency over %d cells, each the fastest of %d campaigns; highest percentile with >= 10 beyond it: p%g\n",
		walls, len(lat), fig9Reps, 100*tailPercentile(len(lat), 0.5, 0.9, 0.99))
	s := summary{wall: wall, opsPerS: float64(len(ref.Cells)) / wall,
		p50: hdQuantile(append([]float64(nil), lat...), 0.50),
		p90: hdQuantile(append([]float64(nil), lat...), 0.90),
		p99: hdQuantile(append([]float64(nil), lat...), 0.99)}
	return s, median(rss), nil
}

func runFig9(o options) (*result, error) {
	ref, err := loadFig9Ref()
	if err != nil {
		return nil, err
	}
	client := newClient(2, 0)
	setup, w, err := setupTimes(fig9SetupReps, func(int) (*worker, error) {
		return startWorker(o.bin, client, "-workers", "1")
	})
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !o.trace {
		sum, rss, err := fig9Untraced(o, w, client, ref, res)
		if err != nil {
			return nil, err
		}
		endToEnd(res.Metrics, setup, sum, rss)
		return res, nil
	}

	// Traced run: the set-up's worker serves the campaign with spans,
	// timeline stitching and in-process replays of every cell. A second
	// fresh worker serves every fig9BaselineEvery-th cell untraced right
	// next to its traced call, so the trace overhead compares the same
	// cells at nearly the same moment on a box whose speed drifts.
	defer w.stop()
	bw, err := startWorker(o.bin, client, "-workers", "1")
	if err != nil {
		return nil, err
	}
	defer bw.stop()
	before, err := w.scrape(client)
	if err != nil {
		return nil, err
	}
	tr, _, snap, terr := fig9Campaign(w, client, ref, bw)
	if tr == nil {
		return nil, terr
	}
	res.add(tr.tally, terr)
	lm := newLayerMetrics()
	lm.serviceLayers(tr.rec)
	if err := lm.workerCounters(w, client, before, int64(len(tr.lat))); err != nil {
		return nil, err
	}
	rec := tr.rec
	total := func(name string) float64 { return sum(rec.durations(name, time.Millisecond)) }
	lm.set("kernels.build_ms", total(spanBuild))
	lm.set("compiler.analyze_ms", total(spanAnalyze))
	lm.set("runtime.prepare_ms", total(spanPrepare))
	var gen, access, engineRun time.Duration
	var txs, loads int64
	var allocMax uint64
	for _, c := range tr.counts {
		gen += c.gen
		access += c.access
		engineRun += c.run
		txs += c.txs
		loads += c.loads
		if c.allocBytes > allocMax {
			allocMax = c.allocBytes
		}
	}
	var instrs, l1s, l1h, l2s, dram, offnode uint64
	var cycles float64
	for _, r := range tr.sim {
		instrs += r.WarpInstrs
		cycles += r.Cycles
		l1s += r.L1Sectors
		l1h += r.L1Hits
		for _, c := range r.L2 {
			l2s += c.Sectors
		}
		dram += r.DRAMBytes
		offnode += r.OffNodeBytes()
	}
	lm.set("trace.gen_ms", ms(gen))
	lm.set("trace.transactions", float64(txs))
	lm.set("trace.ns_per_tx", safeDiv(float64(gen), float64(txs)))
	lm.set("mem_cache.ns_per_access", safeDiv(float64(access), float64(loads)))
	lm.set("engine.run_ms", ms(engineRun))
	lm.set("engine.ns_per_warp_instr", safeDiv(float64(engineRun), float64(instrs)))
	lm.set("engine.residual_ms", ms(engineRun-gen-access))
	lm.set("engine.alloc_mb", float64(allocMax)/(1<<20))
	lm.set("engine.warp_instrs", float64(instrs))
	lm.set("engine.cycles", cycles)
	lm.set("engine.l1_sectors", float64(l1s))
	lm.set("engine.l1_hit_ratio", safeDiv(float64(l1h), float64(l1s)))
	lm.set("engine.l2_sectors", float64(l2s))
	lm.set("engine.dram_bytes", float64(dram))
	lm.set("engine.offnode_bytes", float64(offnode))
	lm.set("simsvc.queue_wait_ms", rec.medianOf(stagePrefix+"queue_wait", time.Millisecond))
	lm.set("simsvc.compute_ms", rec.medianOf(stagePrefix+"compute", time.Millisecond))
	lm.set("fleet.exec_ms", rec.medianOf(spanExec, time.Millisecond))
	lm.set("fleet.overhead_ms", median(rec.parentGaps(spanExec, spanWorkerJob, time.Millisecond)))
	lm.set("fleet.attempts", float64(snap.Attempts))
	lm.set("fleet.retries", float64(snap.Retries))
	lm.set("fleet.hedges", float64(snap.Hedges))
	lm.set("fleet.degraded", float64(snap.DegradedJobs))
	lm.set("simsvc.response_bytes", median(rec.sizes))
	lm.set("bench.trace_overhead_frac", median(tr.pairedLat)/median(tr.baseLat)-1)
	res.Metrics = lm
	return res, finishTrace(o, rec)
}
