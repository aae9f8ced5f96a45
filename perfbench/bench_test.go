package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

func TestMedian(t *testing.T) {
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 || median(nil) != 0 {
		t.Error("median of an even count is the mean of the middle two, of an odd count the middle")
	}
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs, the
// reference the Harrell–Davis estimate is compared with. It sorts xs in
// place.
func percentile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return xs[int(math.Ceil(p*float64(len(xs))))-1]
}

func TestHarrellDavisQuantile(t *testing.T) {
	near := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 2, 0.5, 0.5},
		{1, 3, 0.2, 1 - math.Pow(0.8, 3)},
		{40, 40, 0.5, 0.5},
		{134.64, 1.36, 1, 1},
	} {
		if got := regIncBeta(c.a, c.b, c.x); !near(got, c.want, 1e-9) {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	if got := hdQuantile([]float64{5, 1, 4, 2, 3}, 0.5); !near(got, 3, 1e-9) {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		hd := hdQuantile(append([]float64(nil), xs...), p)
		if nr := percentile(append([]float64(nil), xs...), p); !near(hd, nr, 2) {
			t.Errorf("p%v of 1..5000: Harrell-Davis %v, nearest rank %v", 100*p, hd, nr)
		}
	}
	if hdQuantile(nil, 0.5) != 0 || hdQuantile([]float64{7}, 0.9) != 7 {
		t.Error("empty and single-sample quantiles")
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it: p90 for a 135-cell campaign, p99 from 1000
// requests on, the median alone for 20, nothing for fewer.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{135, 0.90}, {999, 0.90}, {1000, 0.99}, {5000, 0.99}, {100, 0.90}, {20, 0.50}, {15, 0}} {
		if got := tailPercentile(c.n, 0.5, 0.9, 0.99); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if b := beyond(135, 0.99); b >= 10 {
		t.Errorf("beyond(135, p99) = %d; a 135-cell p99 must not count as a ten-sample tail", b)
	}
}

// A slow spell covering fewer than half of a serve phase's windows does
// not move the reported figures: each is the median over the windows.
func TestWindowedIgnoresMinoritySlowSpell(t *testing.T) {
	var lr loopResult
	for w := 0; w < 5; w++ {
		n, l := 100, 1.0
		if w == 2 {
			n, l = 20, 50.0 // one window of five at a fiftieth of the speed
		}
		for i := 0; i < n; i++ {
			lr.lat = append(lr.lat, l)
			lr.done = append(lr.done, float64(w)+float64(i)/float64(n))
		}
	}
	lr.elapsed = 5 * time.Second
	s := windowed(lr)
	if s.p50 != 1 || s.p90 != 1 || s.p99 != 1 {
		t.Errorf("percentiles %v/%v/%v, want the quiet windows' 1 ms", s.p50, s.p90, s.p99)
	}
	if math.Abs(s.opsPerS-100) > 1e-9 || s.wall != 5 {
		t.Errorf("ops_per_s %v wall %v, want 100 and 5", s.opsPerS, s.wall)
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.op("")
	tl.op("status 500")
	tl.op("")
	tl.op("record mismatch")
	tl.fail("verified after the loop")
	a, f, first := tl.counts()
	if a != 4 || f != 3 || first != "status 500" {
		t.Fatalf("counts = %d attempted, %d failed, first %q", a, f, first)
	}
	if got := failedFrac(a, f); got != 0.75 {
		t.Errorf("failedFrac = %v, want 0.75", got)
	}

	r := &result{Correct: true}
	r.add(&tally{attempted: 10}, nil)
	if !r.Correct || r.Attempted != 10 || r.Failed != 0 {
		t.Fatalf("clean phase: %+v", r)
	}
	r.add(&tally{attempted: 5, failed: 1, firstErr: "x"}, nil)
	if r.Correct || r.Attempted != 15 || r.Failed != 1 {
		t.Fatalf("a failed op must fail the run: %+v", r)
	}
	r = &result{Correct: true}
	r.add(&tally{attempted: 3}, errors.New("table mismatch"))
	if r.Correct {
		t.Fatal("a campaign error must fail the run")
	}
}

// The digest gate accepts the reference record and rejects it with any
// single field changed.
func TestDigestGateRejectsMutatedField(t *testing.T) {
	run := &stats.Run{Workload: "vecadd", Policy: "ladm", Arch: "hier-4x4", Cycles: 1234.5,
		WarpInstrs: 99, L1Sectors: 10, L1Hits: 4, DRAMBytes: 4096}
	ref := &fig9Ref{Scale: fig9Scale, Cells: []cellRef{{Workload: "vecadd", Policy: "ladm",
		Arch: "hier-4x4", SHA256: digest(run)}}}
	if why := ref.checkCell(0, run); why != "" {
		t.Fatalf("reference record rejected: %s", why)
	}
	mutants := []func(r *stats.Run){
		func(r *stats.Run) { r.Cycles++ },
		func(r *stats.Run) { r.L1Hits++ },
		func(r *stats.Run) { r.DRAMBytes-- },
		func(r *stats.Run) { r.L2[0].Sectors = 1 },
		func(r *stats.Run) { r.Tier = "analytic" },
		func(r *stats.Run) { r.Policy = "h-coda" },
	}
	for i, mutate := range mutants {
		m := *run
		mutate(&m)
		if ref.checkCell(0, &m) == "" {
			t.Errorf("mutant %d accepted", i)
		}
	}
	if ref.checkCell(1, run) == "" {
		t.Error("a cell beyond the reference was accepted")
	}
}

func TestFig9ReferenceLoads(t *testing.T) {
	ref, err := loadFig9Ref()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Cells) != 27*5 {
		t.Fatalf("reference has %d cells, want 135", len(ref.Cells))
	}
	if fig9RefTable == "" {
		t.Fatal("reference table is empty")
	}
}

func TestHitKeysDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) [clients][]int {
		pick := hitPicker(seed, 32)
		var out [clients][]int
		for i := 0; i < 200; i++ {
			for c := 0; c < clients; c++ {
				out[c] = append(out[c], pick(c))
			}
		}
		return out
	}
	if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different keys")
	}
	if a, b := draw(7), draw(8); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds drew the same keys")
	}
	if a := draw(7); reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("both clients drew the same stream")
	}
}

func TestColdPlanDeterministicAndNeverRepeats(t *testing.T) {
	universe, err := coldUniverse()
	if err != nil {
		t.Fatal(err)
	}
	if len(universe) < 2*coldResident {
		t.Fatalf("key space of %d is too small for %d resident keys", len(universe), coldResident)
	}
	seen := map[simsvc.JobKey]bool{}
	for _, r := range universe {
		if seen[r.Key()] {
			t.Fatalf("key space repeats %+v", r)
		}
		seen[r.Key()] = true
	}
	store, fill, seq := coldPlan(universe, 3, coldResident)
	store2, fill2, seq2 := coldPlan(universe, 3, coldResident)
	if !reflect.DeepEqual(store, store2) || fill != fill2 || !reflect.DeepEqual(seq, seq2) {
		t.Fatal("same seed planned different keys")
	}
	if _, _, seq3 := coldPlan(universe, 4, coldResident); reflect.DeepEqual(seq, seq3) {
		t.Fatal("different seeds planned the same sequence")
	}
	if len(store) != coldResident {
		t.Fatalf("store holds %d keys, want %d", len(store), coldResident)
	}
	inStore := map[simsvc.JobKey]bool{}
	for _, r := range store {
		inStore[r.Key()] = true
	}
	if inStore[fill.Key()] {
		t.Fatal("the registry-fill key is also a store key")
	}
	asked := map[simsvc.JobKey]bool{fill.Key(): true}
	resident := 0
	for _, k := range seq {
		key := k.req.Key()
		if asked[key] {
			t.Fatalf("key %+v requested twice, or also used to fill the registry", k.req)
		}
		asked[key] = true
		if k.resident != inStore[key] {
			t.Fatalf("key %+v resident=%t but in store=%t", k.req, k.resident, inStore[key])
		}
		if k.resident {
			resident++
		}
	}
	if len(seq) < coldResident || resident*3 < len(seq) || resident*3 > 2*len(seq) {
		t.Fatalf("sequence of %d holds %d resident keys; want a long, roughly even mix", len(seq), resident)
	}
}

// TestColdPlanHeadroom checks that every seed plans enough distinct keys
// for a run coldHeadroom times as fast as the measured one: a run that
// runs out of keys fails.
func TestColdPlanHeadroom(t *testing.T) {
	universe, err := coldUniverse()
	if err != nil {
		t.Fatal(err)
	}
	need := coldHeadroom * coldMeasuredOpsPerS * loadSpec(t).RunSeconds
	for seed := int64(1); seed <= 20; seed++ {
		if _, _, seq := coldPlan(universe, seed, coldResident); len(seq) < need {
			t.Errorf("seed %d plans %d keys; %dx the measured %d ops/s over %d s needs %d",
				seed, len(seq), coldHeadroom, coldMeasuredOpsPerS, loadSpec(t).RunSeconds, need)
		}
	}
}

// TestColdConfidenceIgnoresScale backs coldUniverse's shortcut: the
// analytic tier rates a (workload, policy, machine) the same at every
// scale of the key space, so rating it once at the largest is enough.
func TestColdConfidenceIgnoresScale(t *testing.T) {
	universe, err := coldUniverse()
	if err != nil {
		t.Fatal(err)
	}
	rated := map[simsvc.Request]bool{}
	for _, r := range universe {
		r.Scale = coldMaxScale
		rated[r] = true
	}
	for _, wl := range kernels.Names() {
		for _, pol := range rt.Names() {
			for _, m := range arch.Names() {
				for _, sc := range []int{coldMinScale, (coldMinScale + coldMaxScale) / 2} {
					req := simsvc.Request{Workload: wl, Policy: pol, Machine: m, Scale: sc,
						Fidelity: simsvc.FidelityAnalytic}.Normalize()
					hc, err := highConfidence(req)
					if err != nil {
						t.Fatal(err)
					}
					req.Scale = coldMaxScale
					if hc != rated[req] {
						t.Errorf("%s/%s/%s: high confidence %t at scale %d, %t at %d", wl, pol, m, hc, sc, rated[req], coldMaxScale)
					}
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "root", start: at(0), end: at(10), parent: -1},
		{name: "a", start: at(1), end: at(4), parent: 0},
		{name: "b", start: at(5), end: at(12), parent: 0}, // overruns the parent
		{name: "a", start: at(6), end: at(7), parent: 2},
	}
	st := selfTimes(spans)
	want := map[string]time.Duration{"root": 2 * time.Millisecond, "a": 4 * time.Millisecond, "b": 6 * time.Millisecond}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("selfTimes = %v, want %v", st, want)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	RunSeconds int                           `json:"run_seconds"`
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestReportedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	e2e := map[string]metric{}
	endToEnd(e2e, 1, summary{}, 10)
	var got, want []string
	for n, m := range e2e {
		got = append(got, n+" "+m.Unit)
	}
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}

	got, want = nil, nil
	for n, m := range newLayerMetrics() {
		got = append(got, n+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
}
