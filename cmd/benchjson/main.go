// Command benchjson converts `go test -bench` text output into a stable
// JSON summary, so benchmark baselines can be committed and diffed across
// PRs without depending on external tooling.
//
// It reads the standard benchmark format from stdin (or -in FILE), groups
// repeated runs of the same benchmark (-count N), and emits per-metric
// min/median/max. The median over fixed-iteration runs (-benchtime Nx) is
// the number to compare between commits: fixed iterations remove the
// iteration-count feedback loop, and the median shrugs off scheduler noise
// that corrupts means.
//
// Usage:
//
//	go test -run '^$' -bench 'GPUCycle$' -benchtime 20000x -count 8 . | benchjson -out bench.json
//
// The diff subcommand compares two such artifacts median-vs-median as a
// regression gate (see diff.go):
//
//	benchjson diff -baseline BENCH_PR4.json -new bench.json -threshold 0.05
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metric summarizes one measured unit (ns/op, B/op, allocs/op, or any
// custom b.ReportMetric unit) across the repeated runs of one benchmark.
type Metric struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// Benchmark is one benchmark function (one name-CPUs combination).
type Benchmark struct {
	Name       string   `json:"name"`
	Iterations int64    `json:"iterations"` // from the last run; identical across runs under -benchtime Nx
	Metrics    []Metric `json:"metrics"`
}

// Report is the whole artifact. Context lines (goos/goarch/pkg/cpu) are
// carried through so a diff that spans machines is visibly apples-to-
// oranges. GOMAXPROCS and NumCPU are stamped from the converting process —
// which runs on the same machine as the benchmark — because numbers
// measured with one core are not comparable to numbers measured with many.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	NumCPU     int         `json:"numcpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}
	in := flag.String("in", "", "read benchmark output from this file (default stdin)")
	out := flag.String("out", "", "write JSON to this file (default stdout)")
	flag.Parse()

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(bufio.NewScanner(r))
	if err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("benchjson: no benchmark lines in input"))
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// parse consumes the text format: context lines ("goos: linux"), benchmark
// result lines ("BenchmarkX-8  20000  18783 ns/op  0 B/op  0 allocs/op"),
// and noise (PASS, ok, test logs) which it skips.
func parse(sc *bufio.Scanner) (Report, error) {
	var rep Report
	iters := map[string]int64{}
	samples := map[string]map[string][]float64{} // name -> unit -> values
	units := map[string][]string{}               // name -> units in first-seen order
	var order []string

	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Need at least name, iterations, and one value+unit pair, with the
		// pairs lining up — otherwise it's a log line that happens to start
		// with "Benchmark".
		if len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name := f[0]
		if _, seen := samples[name]; !seen {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		iters[name] = n
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return rep, fmt.Errorf("benchjson: %s: bad value %q", name, f[i])
			}
			unit := f[i+1]
			if _, seen := samples[name][unit]; !seen {
				units[name] = append(units[name], unit)
			}
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}

	sort.Strings(order) // stable artifact regardless of -bench regexp order
	for _, name := range order {
		b := Benchmark{Name: name, Iterations: iters[name]}
		for _, unit := range units[name] {
			vals := samples[name][unit]
			sort.Float64s(vals)
			b.Metrics = append(b.Metrics, Metric{
				Unit:   unit,
				Runs:   len(vals),
				Min:    vals[0],
				Median: median(vals),
				Max:    vals[len(vals)-1],
			})
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

// median of an already-sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
