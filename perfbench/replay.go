package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"time"

	"ladm/internal/compiler"
	"ladm/internal/core"
	"ladm/internal/engine"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	"ladm/internal/mem/cache"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
	"ladm/internal/trace"
)

// The traced run replays each layer's public functions in-process, from
// outside the program, after the operation they shadow has returned.
// Span names double as the per-layer metric sources.
const (
	spanRoundtrip = "http.roundtrip"
	spanExec      = "fleet.exec"
	spanReplay    = "replay"
	spanDecode    = "simsvc.decode"
	spanResolve   = "simsvc.resolve"
	spanBuild     = "kernels.build"
	spanKey       = "simsvc.key"
	spanCacheGet  = "simsvc.cache_get"
	spanEncode    = "simsvc.encode"
	spanWorkerJob = "simsvc.job"
	stagePrefix   = "simsvc.stage."
	spanAnalyze   = "compiler.analyze"
	spanPrepare   = "runtime.prepare"
	spanTrace     = "trace.replay"
	spanEngine    = "engine.run"
	spanAssess    = "analytic.assess"
	spanPredict   = "analytic.predict"
	spanStoreGet  = "simstore.get"
	spanRescan    = "simstore.rescan"
	spanStorePut  = "simstore.put"
)

// runRequest mirrors the body POST /run decodes.
type runRequest struct {
	simsvc.Request
	Async bool `json:"async,omitempty"`
}

// serviceReplay re-times the calls a worker makes for one sync
// POST /run: body decode, Request.Resolve (twice: the handler validates
// and execute resolves again), the JobKey hash, a cache probe and the
// indented JobView encoding. kernels.ByName, which Resolve calls, is
// timed on its own as well. It returns the summed time of the calls on
// the request's blocking path and the decoded request and record.
func serviceReplay(rec *recorder, c *simsvc.Cache, reqID string, parent, track int,
	reqBody, respBody []byte) (time.Duration, simsvc.Request, *stats.Run, error) {
	var view simsvc.JobView
	if err := json.Unmarshal(respBody, &view); err != nil || view.Run == nil || view.Run.Run == nil {
		return 0, simsvc.Request{}, nil, fmt.Errorf("replay: response has no record: %v", err)
	}
	run := view.Run.Run
	var blocking time.Duration
	var req runRequest
	var derr error
	blocking += rec.timed(spanDecode, reqID, parent, track, func() {
		derr = json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req)
	})
	if derr != nil {
		return 0, simsvc.Request{}, nil, derr
	}
	norm := req.Request.Normalize()
	var rerr error
	for i := 0; i < 2; i++ {
		blocking += rec.timed(spanResolve, reqID, parent, track, func() { _, rerr = norm.Resolve() })
	}
	if rerr != nil {
		return 0, simsvc.Request{}, nil, rerr
	}
	rec.timed(spanBuild, reqID, parent, track, func() { _, rerr = kernels.ByName(norm.Workload, norm.Scale) })
	var key simsvc.JobKey
	blocking += rec.timed(spanKey, reqID, parent, track, func() { key = norm.Key() })
	blocking += rec.timed(spanCacheGet, reqID, parent, track, func() { c.Get(key) })
	c.Put(key, run)
	var size int
	blocking += rec.timed(spanEncode, reqID, parent, track, func() {
		p := simsvc.NewRunPayload(run)
		v := view
		v.Run = &p
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		enc.Encode(v)
		size = buf.Len()
	})
	rec.noteSize(size)
	return blocking, norm, run, rerr
}

// stitchTimeline adds a worker's returned stage timeline (the
// X-Ladm-Timeline header of a traced request) under the round-trip span
// that carried it.
func stitchTimeline(rec *recorder, header, reqID string, parent, track int) {
	if header == "" {
		return
	}
	var ts svcobs.TimelineSummary
	if json.Unmarshal([]byte(header), &ts) != nil {
		return
	}
	stitchSummary(rec, &ts, reqID, parent, track)
}

func stitchSummary(rec *recorder, ts *svcobs.TimelineSummary, reqID string, parent, track int) {
	job := rec.add(span{name: spanWorkerJob, start: time.UnixMicro(ts.StartUS), end: time.UnixMicro(ts.EndUS),
		parent: parent, reqID: reqID, track: track})
	for _, st := range ts.Stages {
		start := time.UnixMicro(st.StartUS)
		rec.add(span{name: stagePrefix + st.Stage, start: start,
			end: start.Add(time.Duration(st.DurUS) * time.Microsecond), parent: job, reqID: reqID, track: track})
	}
}

// simCounts are one cell's replayed simulator numbers.
type simCounts struct {
	txs, loads       int64
	gen, access, run time.Duration
	allocBytes       uint64
}

// simulatorReplay re-runs one event-tier cell in-process layer by layer
// (the kernel build is timed by serviceReplay): the locality analysis,
// the runtime's Prepare, a pass of trace generation whose loads replay
// through an L1-geometry cache, and a full engine run, whose record it
// returns.
func simulatorReplay(rec *recorder, reqID string, parent, track int, job core.Job) (*stats.Run, simCounts, error) {
	var c simCounts
	var err error
	w := job.Workload
	rec.timed(spanAnalyze, reqID, parent, track, func() { compiler.Analyze(w) })
	var plan *rt.Plan
	cfg := job.Arch
	rec.timed(spanPrepare, reqID, parent, track, func() { plan, err = rt.Prepare(w, &cfg, job.Policy) })
	if err != nil {
		return nil, c, err
	}
	rec.timed(spanTrace, reqID, parent, track, func() { err = replayTrace(plan, &c) })
	if err != nil {
		return nil, c, err
	}
	// Trace generation only reads the plan, so the engine runs on it as
	// Prepare left it; the record digest check would catch otherwise.
	var before, after goruntime.MemStats
	var run *stats.Run
	goruntime.ReadMemStats(&before)
	c.run = rec.timed(spanEngine, reqID, parent, track, func() { run, err = engine.New(plan).Run() })
	goruntime.ReadMemStats(&after)
	c.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, c, err
	}
	if job.Label != "" {
		run.Policy = job.Label
	}
	return run, c, nil
}

// replayTrace generates every phase's transactions the way the engine
// does — every (threadblock, warp, iteration, phase) of every launch
// repetition — and streams each phase's loads through one cache with
// the machine's L1 geometry (stores bypass L1, as in the engine).
func replayTrace(plan *rt.Plan, c *simCounts) error {
	cfg := plan.Cfg
	l1 := cache.New(cache.Config{Sets: cfg.L1Sets(), Assoc: cfg.L1Assoc,
		LineBytes: cfg.LineBytes, SectorBytes: cfg.SectorBytes})
	resolver := plan.Workload.Resolver()
	var buf []trace.Transaction
	for _, lp := range plan.Launches {
		k := lp.Launch.Kernel
		g, err := trace.New(k, plan.Space, resolver, cfg.LineBytes, cfg.SectorBytes, cfg.WarpSize)
		if err != nil {
			return err
		}
		warps := k.WarpsPerTB(cfg.WarpSize)
		phase := func(tb int, ph kir.Phase, m int) {
			if g.AccessSites(ph) == 0 {
				return
			}
			t0 := time.Now()
			buf = buf[:0]
			for w := 0; w < warps; w++ {
				buf, _ = g.WarpTransactions(tb, w, m, ph, buf)
			}
			g.FinalizeBytes(buf)
			t1 := time.Now()
			for i := range buf {
				if buf[i].Mode == kir.Load {
					l1.Access(buf[i].Addr, cache.SectorMask(buf[i].Mask), true, false)
					c.loads++
				}
			}
			c.access += time.Since(t1)
			c.gen += t1.Sub(t0)
			c.txs += int64(len(buf))
		}
		for rep := 0; rep < lp.Launch.EffTimes(); rep++ {
			for _, q := range lp.Assignment.Queues {
				for _, tb32 := range q {
					tb := int(tb32)
					iters := k.EffItersFor(tb)
					phase(tb, kir.PreLoop, 0)
					for m := 0; ; {
						phase(tb, kir.InLoop, m)
						if m++; m >= iters {
							break
						}
					}
					phase(tb, kir.PostLoop, iters-1)
				}
			}
		}
	}
	return nil
}
