// Command perfbench is the repository's end-to-end benchmark. It starts
// the shipped ladmserve binary on loopback, drives one workload against
// it, checks every answer, and prints one JSON result line:
//
//	perfbench -bin ladmserve -work DIR --workload fig9-fleet --seed 1 --seconds 12 --trace 0
//
// Workloads:
//
//	fig9-fleet  the Fig. 9 campaign (27 workloads x 5 systems, scale 64)
//	            through a fleet.Runner, one cell in flight, twice
//	serve-hit   closed-loop sync POST /run cache hits, 2 clients, with the
//	            job registry at its retention bound
//	serve-cold  closed-loop sync analytic POST /run against -store-dir,
//	            half store-resident keys, half fresh keys
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 it carries the per-layer metrics: the run drives the
// workload with tracing on (serve-*: every other request), replays each
// layer's public functions in-process after every traced operation, and
// writes a Chrome trace of the spans to the work directory. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	bin     string // ladmserve binary
	work    string // work directory for stores and traces
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]func(options) (*result, error){
	"fig9-fleet": runFig9,
	"serve-hit":  runServeHit,
	"serve-cold": runServeCold,
}

func main() {
	var o options
	var name string
	var traceFlag, seconds int
	flag.StringVar(&name, "workload", "", "workload to run: fig9-fleet, serve-hit or serve-cold")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&seconds, "seconds", 10, "how long the serve-* workloads measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "path to the ladmserve binary")
	flag.StringVar(&o.work, "work", "", "work directory for stores and traces")
	flag.Parse()
	run, ok := workloads[name]
	if !ok || o.bin == "" || o.work == "" || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --seconds >= 1, --trace 0|1 and --workload one of:", workloadNames())
		os.Exit(2)
	}
	o.seconds, o.trace = float64(seconds), traceFlag == 1
	o.work = filepath.Join(o.work, name)
	if err := os.RemoveAll(o.work); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fail(err)
	}
	res, err := run(o)
	if err != nil {
		fail(err)
	}
	report(os.Stderr, name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints every metric by name and unit, plus the failure
// accounting, for a human reader.
func report(w *os.File, name string, r *result) {
	fmt.Fprintf(w, "workload %s: correct=%t attempted=%d succeeded=%d failed=%d failed_frac=%.6g\n",
		name, r.Correct, r.Attempted, r.Attempted-r.Failed, r.Failed, failedFrac(r.Attempted, r.Failed))
	var keys []string
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}
