package main

import (
	"net/http"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Each workload fills the layers its operations pass through; a
// layer a workload never enters reports 0 (serve-hit runs no simulator,
// fig9-fleet touches no store).
var perLayer = []struct{ name, unit string }{
	// Simulator, replayed per fig9-fleet cell; *_ms are campaign totals.
	{"kernels.build_ms", "ms"},
	{"compiler.analyze_ms", "ms"},
	{"runtime.prepare_ms", "ms"},
	{"trace.gen_ms", "ms"},
	{"trace.transactions", "count"},
	{"trace.ns_per_tx", "ns"},
	{"mem_cache.ns_per_access", "ns"},
	{"engine.run_ms", "ms"},
	{"engine.ns_per_warp_instr", "ns"},
	{"engine.residual_ms", "ms"},
	{"engine.alloc_mb", "MB"},
	{"engine.warp_instrs", "count"},
	{"engine.cycles", "count"},
	{"engine.l1_sectors", "count"},
	{"engine.l1_hit_ratio", "ratio"},
	{"engine.l2_sectors", "count"},
	{"engine.dram_bytes", "bytes"},
	{"engine.offnode_bytes", "bytes"},
	// Worker timeline and fleet dispatch, fig9-fleet per-cell medians.
	{"simsvc.queue_wait_ms", "ms"},
	{"simsvc.compute_ms", "ms"},
	{"fleet.exec_ms", "ms"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.attempts", "count"},
	{"fleet.retries", "count"},
	{"fleet.hedges", "count"},
	{"fleet.degraded", "count"},
	// Service path of one POST /run, per-request medians.
	{"simsvc.decode_us", "us"},
	{"simsvc.resolve_us", "us"},
	{"kernels.build_us", "us"},
	{"simsvc.key_us", "us"},
	{"simsvc.cache_get_us", "us"},
	{"simsvc.encode_us", "us"},
	{"simsvc.response_bytes", "bytes"},
	{"simsvc.cache_probe_us", "us"},
	{"simsvc.store_probe_us", "us"},
	{"simsvc.tier_decide_us", "us"},
	{"simsvc.respond_us", "us"},
	{"http.roundtrip_us", "us"},
	{"simsvc.unattributed_us", "us"},
	{"simsvc.registry_jobs", "count"},
	{"simsvc.cache_hit_ratio", "ratio"},
	{"simsvc.store_hit_ratio", "ratio"},
	// Analytic tier and durable store, serve-cold per-request medians.
	{"analytic.assess_us", "us"},
	{"analytic.predict_us", "us"},
	{"simstore.get_us", "us"},
	{"simstore.rescan_us", "us"},
	{"simstore.put_us", "us"},
	{"simstore.records", "count"},
	{"simstore.records_added", "count"},
	// Traced against untraced p50 of the same workload.
	{"bench.trace_overhead_frac", "ratio"},
}

// layerMetrics is a filled-in per-layer result.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// set overwrites a known metric's value, keeping its unit.
func (m layerMetrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// serviceLayers fills the per-request service metrics every workload
// shares from the traced run's spans.
func (m layerMetrics) serviceLayers(rec *recorder) {
	m.set("simsvc.decode_us", rec.medianOf(spanDecode, time.Microsecond))
	m.set("simsvc.resolve_us", rec.medianOf(spanResolve, time.Microsecond))
	m.set("kernels.build_us", rec.medianOf(spanBuild, time.Microsecond))
	m.set("simsvc.key_us", rec.medianOf(spanKey, time.Microsecond))
	m.set("simsvc.cache_get_us", rec.medianOf(spanCacheGet, time.Microsecond))
	m.set("simsvc.encode_us", rec.medianOf(spanEncode, time.Microsecond))
	m.set("simsvc.cache_probe_us", rec.medianOf(stagePrefix+"cache_probe", time.Microsecond))
	m.set("simsvc.store_probe_us", rec.medianOf(stagePrefix+"store_probe", time.Microsecond))
	m.set("simsvc.tier_decide_us", rec.medianOf(stagePrefix+"tier_decide", time.Microsecond))
	m.set("simsvc.respond_us", rec.medianOf(stagePrefix+"respond", time.Microsecond))
}

// workerCounters fills the metrics read from the worker's own /statusz
// and /metrics: the registry size, and the shares of the traced phase's
// requests served from the result cache (memory or store) and from the
// store alone (before = scrape at the phase's start).
func (m layerMetrics) workerCounters(w *worker, client *http.Client, before map[string]float64, requests int64) error {
	after, err := w.scrape(client)
	if err != nil {
		return err
	}
	var st struct {
		Jobs struct {
			Tracked int `json:"tracked"`
		} `json:"jobs"`
	}
	if err := getJSON(w, client, "/statusz", &st); err != nil {
		return err
	}
	m.set("simsvc.registry_jobs", float64(st.Jobs.Tracked))
	delta := func(name string) float64 { return after[name] - before[name] }
	if requests > 0 {
		m.set("simsvc.cache_hit_ratio", delta("simsvc_cache_hits_total")/float64(requests))
	}
	if _, store := after["simsvc_store_hits_total"]; store && requests > 0 {
		m.set("simsvc.store_hit_ratio", delta("simsvc_store_hits_total")/float64(requests))
	}
	return nil
}
