package simsvc

import (
	"context"
	"fmt"
	"sync"

	"ladm/internal/analytic"
	"ladm/internal/core"
	"ladm/internal/simtel"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// CachedRunner is the one job pipeline. POST /run and every /sweep cell,
// ladmbench campaigns and ladmsim all reach the simulator through it, in
// this order:
//
//  1. probe the result cache, and the store behind it, by the JobKey of
//     the job's registry identity;
//  2. on a miss, resolve a job that carries only its identity;
//  3. the analytic tier, under fidelity analytic or auto;
//  4. Inner: a fleet, which degrades to the local pool, or the pool
//     itself (Sequential in ladmsim).
//
// Jobs without an identity (custom or mutated workloads, resized
// machines) and sweep cells carrying a caller-owned collector skip the
// cache and always run; a named cell's collector output is spilled
// under its telemetry key. Results match a plain pool sweep byte for
// byte — the determinism guard extends to the cached path.
//
// Cached records are shared across callers, so labelled cells receive a
// clone with the label applied — the canonical record in the cache is
// never mutated.
type CachedRunner struct {
	// Inner runs event-tier work: the pool, or a fleet that degrades to
	// it.
	Inner Runner
	// Cache is the result cache, optionally store-backed. Its metrics
	// also count tier decisions and telemetry spills, and a DiskStore
	// behind it receives the spills.
	Cache *Cache
	// Fidelity is the serving tier of Sweep's cells ("" = event). It is
	// part of every JobKey, so a campaign run through the analytic tier
	// can never collide with — or be served from — event-tier records of
	// the same cells.
	Fidelity string
	// Progress, when set, is called once per finished cell with the
	// completed count so far, the sweep's total, the cell's name and
	// whether it was served from the cache. Calls are serialized but may
	// come from any of the sweep's goroutines; keep the callback fast.
	Progress func(done, total int, cell string, cached bool)
}

// Exec serves one request. A cache or store hit returns without
// building anything; a miss resolves the request and computes it. Under
// req.Telemetry a computed run gets a fresh collector, returned as tel
// (nil on a hit) and spilled to the store.
func (c *CachedRunner) Exec(ctx context.Context, req Request) (run *stats.Run, tel *simtel.Collector, cached bool, err error) {
	req = req.Normalize()
	return c.serve(ctx, req, core.Job{Identity: req.identity(), Parallel: req.Parallel})
}

// serve probes the cache by req's key and, on a miss, computes job —
// resolving it first when it carries only its identity.
func (c *CachedRunner) serve(ctx context.Context, req Request, job core.Job) (*stats.Run, *simtel.Collector, bool, error) {
	key := req.Key()
	var tel *simtel.Collector
	run, cached, err := c.Cache.Do(ctx, key, func() (*stats.Run, error) {
		if job.Workload == nil {
			resolved, err := req.Resolve()
			if err != nil {
				return nil, err
			}
			job = resolved
		}
		if req.Telemetry {
			tel = simtel.New(simtel.Config{SampleEvery: simtel.DefaultSampleEvery, Trace: true})
			job.Tel = tel
		}
		rs, err := c.compute(ctx, req.Fidelity, []core.Job{job})
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	})
	if err == nil && tel != nil {
		c.spill(ctx, key, run, tel)
	}
	return run, tel, cached, err
}

// compute runs jobs past the cache: the analytic tier under fidelity
// analytic or auto, and Inner for event-tier jobs and auto's
// escalations.
func (c *CachedRunner) compute(ctx context.Context, fidelity string, jobs []core.Job) ([]*stats.Run, error) {
	if fidelity == "" || fidelity == FidelityEvent {
		return c.Inner.Sweep(ctx, jobs)
	}
	svcobs.TimelineFrom(ctx).Mark(svcobs.StageTier)
	tier := &analytic.Runner{OnDecision: func(t string, d analytic.Decision) {
		c.Cache.metrics.ObserveTierDecision(t, d)
		if t != analytic.TierAnalytic {
			svcobs.Log(ctx).InfoContext(ctx, "simsvc: tier escalation",
				"class", d.Class, "reason", d.Reason)
		}
	}}
	if fidelity == FidelityAuto {
		// "analytic" has no fallback: a job outside the model's domain
		// fails rather than silently switching tiers.
		tier.Fallback = c.Inner
	}
	return tier.Sweep(ctx, jobs)
}

// spill counts a computed telemetry run and, with a DiskStore behind
// the cache, persists its collector's output under key, so
// GET /jobs/{key}/telemetry and ladmstore read it back after eviction
// or restart.
func (c *CachedRunner) spill(ctx context.Context, key JobKey, run *stats.Run, tel *simtel.Collector) {
	m := c.Cache.metrics
	if run.Telemetry != nil {
		m.observeTelemetry(run.Telemetry.PeakLinkUtil)
	}
	ds := c.Cache.diskStore()
	if ds == nil {
		return
	}
	svcobs.TimelineFrom(ctx).Mark(svcobs.StageSpill)
	rec := &TelemetryRecord{Summary: run.Telemetry, Series: tel.Series(), Events: tel.AllEvents()}
	if ds.PutTelemetry(key, rec) {
		m.telemetrySpilled.Add(1)
	}
}

// Sweep executes the jobs, serving named cells from the cache where
// possible, and returns records in job order.
func (c *CachedRunner) Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error) {
	results := make([]*stats.Run, len(jobs))
	var (
		passJobs []core.Job
		passIdx  []int
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		progMu   sync.Mutex
		done     int
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	tick := func(job core.Job, cached bool) {
		if c.Progress == nil {
			return
		}
		cell := job.Label
		if cell == "" && job.Workload != nil {
			cell = fmt.Sprintf("%s/%s", job.Workload.Name, job.Policy.Name)
		}
		progMu.Lock()
		done++
		c.Progress(done, len(jobs), cell, cached)
		progMu.Unlock()
	}
	for i, job := range jobs {
		req, ok := RequestForJob(job, job.Identity.Scale)
		if !ok {
			passJobs = append(passJobs, job)
			passIdx = append(passIdx, i)
			continue
		}
		req.Fidelity, req.Parallel = c.Fidelity, job.Parallel
		wg.Add(1)
		go func(i int, job core.Job, req Request) {
			defer wg.Done()
			label := job.Label
			// The cache holds the canonical record (run.Policy = the
			// policy's own name); labels are applied to clones below.
			job.Label = ""
			run, _, hit, err := c.serve(ctx, req.Normalize(), job)
			if err != nil {
				fail(err)
				return
			}
			tick(job, hit)
			if label != "" {
				run = run.Clone()
				run.Policy = label
			}
			results[i] = run
		}(i, job, req)
	}
	if len(passJobs) > 0 {
		rs, err := c.compute(ctx, c.Fidelity, passJobs)
		if err != nil {
			fail(err)
		} else {
			for k, i := range passIdx {
				job := passJobs[k]
				results[i] = rs[k]
				tick(job, false)
				if job.Tel != nil && job.Identity.Named() {
					req := requestOf(job.Identity)
					req.Telemetry, req.Fidelity = true, c.Fidelity
					c.spill(ctx, req.Key(), rs[k], job.Tel)
				}
			}
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
