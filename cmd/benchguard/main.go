// Command benchguard is the benchmark regression gate for the engine's
// allocation-free event core and the analytic tier's speed claims. It
// parses `go test -bench -benchmem` output and compares each benchmark
// against the baseline pinned in BENCH_engine.json, failing when any
// benchmark regresses.
//
// Two gates apply per benchmark. Allocation counts are (nearly)
// deterministic for a deterministic simulator, so allocs/op is gated
// sharply against max_allocs_per_op. Wall-clock ns/op is gated loosely:
// a run fails only beyond max_ns_ratio times the pinned ns_per_op
// (default 3x, per-benchmark override in the baseline; 0 on an entry
// inherits the file default). The loose ratio absorbs shared-runner
// noise while still catching order-of-magnitude regressions — e.g. the
// analytic tier silently falling back to event simulation.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x ladm ladm/internal/engine ladm/internal/analytic ladm/internal/simsvc > bench.txt
//	go run ./cmd/benchguard -baseline BENCH_engine.json bench.txt
//
// After an intentional change to the engine's allocation behavior,
// regenerate the baseline (ceilings are re-pinned at 1.5x measured;
// ns_per_op is re-measured, ratio overrides are preserved):
//
//	go run ./cmd/benchguard -baseline BENCH_engine.json -update bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	MaxAllocsPerOp int64   `json:"max_allocs_per_op"`
	// MaxNsRatio overrides the baseline's ns/op gate for this benchmark
	// (0: inherit the file-level default).
	MaxNsRatio float64 `json:"max_ns_ratio,omitempty"`
}

type baseline struct {
	Note       string           `json:"note"`
	Benchmarks map[string]entry `json:"benchmarks"`
	// MaxNsRatio is the default wall-time gate: a benchmark fails beyond
	// this multiple of its pinned ns_per_op (0: defaultNsRatio).
	MaxNsRatio float64 `json:"max_ns_ratio,omitempty"`
}

// defaultNsRatio is the wall-time gate applied when the baseline pins no
// ratio of its own: loose enough for shared-runner noise, tight enough
// to catch a tier or algorithmic regression.
const defaultNsRatio = 3.0

// nsRatioLimit resolves the effective ns/op gate for one benchmark.
func nsRatioLimit(base baseline, e entry) float64 {
	if e.MaxNsRatio > 0 {
		return e.MaxNsRatio
	}
	if base.MaxNsRatio > 0 {
		return base.MaxNsRatio
	}
	return defaultNsRatio
}

type measurement struct {
	nsPerOp     float64
	allocsPerOp int64
	hasAllocs   bool
}

// procSuffix strips the -<GOMAXPROCS> tail go test appends to benchmark
// names (BenchmarkFig9/vecadd-8 -> BenchmarkFig9/vecadd).
var procSuffix = regexp.MustCompile(`-\d+$`)

func parseBench(r io.Reader) (map[string]measurement, error) {
	out := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		var m measurement
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
				}
				m.nsPerOp = v
			case "allocs/op":
				v, err := strconv.ParseInt(fields[i-1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
				}
				m.allocsPerOp = v
				m.hasAllocs = true
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "pinned baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the measured run (ceilings re-pinned at 1.5x)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchguard [-baseline file] [-update] bench-output.txt|-\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	raw, err := os.ReadFile(*baselinePath)
	var base baseline
	if err == nil {
		if jerr := json.Unmarshal(raw, &base); jerr != nil {
			fatal(fmt.Errorf("%s: %v", *baselinePath, jerr))
		}
	} else if !*update {
		fatal(err)
	}

	if *update {
		if base.Benchmarks == nil {
			base.Benchmarks = make(map[string]entry)
		}
		for name, m := range measured {
			if !m.hasAllocs {
				continue
			}
			e := entry{
				NsPerOp:        m.nsPerOp,
				AllocsPerOp:    m.allocsPerOp,
				MaxAllocsPerOp: m.allocsPerOp + m.allocsPerOp/2,
			}
			// Ratio overrides are policy, not measurement; they survive
			// a re-pin.
			if old, ok := base.Benchmarks[name]; ok {
				e.MaxNsRatio = old.MaxNsRatio
			}
			base.Benchmarks[name] = e
		}
		buf, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*baselinePath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: pinned %d benchmarks into %s\n", len(base.Benchmarks), *baselinePath)
		return
	}

	if check(base, measured, os.Stdout) > 0 {
		os.Exit(1)
	}
}

// check gates every pinned benchmark against the baseline — allocs/op
// against its ceiling, ns/op against the loose ratio — writing one line
// per benchmark, and returns the number of failures.
func check(base baseline, measured map[string]measurement, w io.Writer) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(w, "FAIL  %-36s not present in this run (renamed or deleted? re-pin with -update)\n", name)
			failed++
			continue
		}
		if !got.hasAllocs {
			fmt.Fprintf(w, "FAIL  %-36s run without -benchmem (no allocs/op reported)\n", name)
			failed++
			continue
		}
		status := "ok  "
		if got.allocsPerOp > want.MaxAllocsPerOp {
			status = "FAIL"
			failed++
		}
		speed := ""
		if want.NsPerOp > 0 && got.nsPerOp > 0 {
			ratio, limit := got.nsPerOp/want.NsPerOp, nsRatioLimit(base, want)
			verdict := "gated"
			if ratio > limit {
				verdict = "FAIL"
				if status == "ok  " {
					status = "FAIL"
					failed++
				}
			}
			speed = fmt.Sprintf("  (%.2fx baseline time, %s at %gx)", ratio, verdict, limit)
		}
		fmt.Fprintf(w, "%s  %-36s %8d allocs/op  ceiling %8d%s\n",
			status, name, got.allocsPerOp, want.MaxAllocsPerOp, speed)
	}
	for name, m := range measured {
		if _, ok := base.Benchmarks[name]; !ok && m.hasAllocs {
			fmt.Fprintf(w, "note  %-36s %8d allocs/op  (unpinned; add with -update)\n", name, m.allocsPerOp)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "benchguard: %d benchmark(s) regressed above a pinned ceiling\n", failed)
		return failed
	}
	fmt.Fprintf(w, "benchguard: all %d pinned benchmarks within allocation ceilings and time ratios\n", len(names))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
