// Command perfbench is the repository's benchmark: it drives the simulator
// through its public entry points (gpu.New + Simulator.RunContext for
// single runs; fabric.NewCoordinator + fabric.NewWorker + sweep for the
// grid), times each layer from outside, checks every simulated result
// against stored goldens and against itself, and prints every metric by
// name with its unit. The last line of output is one JSON object:
// correct, attempted, failed and the declared metrics of the mode.
//
// Run from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-read --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload paper-read --update-golden
//	bash perfbench/run.sh compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	minIters int
	work     string // scratch directory: fabric stores, span files
	golden   golden // nil: no golden check
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (paper-read, paper-write, grid16-fabric)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the goldens hold for the default")
	seconds := fs.Int("seconds", 40, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "also write the full report (host stamp, all metrics) as JSON to this file")
	work := fs.String("workdir", ".bench_build/perfbench", "scratch directory for fabric stores and span files")
	update := fs.Bool("update-golden", false, "run the workload once at the default seed and rewrite its golden under perfbench/goldens")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	o := options{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		minIters: 1,
		work:     *work,
	}
	if o.trace {
		// One untraced and one traced iteration at least.
		o.minIters = 2
	}
	if *update {
		return updateGolden(w, o)
	}
	if o.seed == defaultSeed {
		if o.golden, err = loadGolden(w.name); err != nil {
			return err
		}
	}
	r, err := measure(context.Background(), w, o)
	if err != nil {
		return err
	}
	if *out != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return r.print(stdout)
}

// measure runs workload w under o and returns its report.
func measure(ctx context.Context, w workload, o options) (*report, error) {
	jobs, err := w.jobs(o.seed)
	if err != nil {
		return nil, err
	}
	r := &report{
		Workload: w.name,
		Seed:     o.seed,
		Trace:    o.trace,
		Seconds:  int(o.seconds / time.Second),
		Host:     stampHost(),
		Metrics:  map[string]value{},
	}
	chk := newChecker(o.golden)
	if w.grid {
		if err := runGrid(ctx, o, w, jobs, chk, r); err != nil {
			return nil, err
		}
	} else if err := runSingle(ctx, o, w, jobs, chk, r); err != nil {
		return nil, err
	}
	r.Attempted, r.Failed, r.Failures = chk.counts()
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.extra("failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "fraction")
	return r, nil
}

// writeSpans stores a traced run's spans as JSON lines in the work
// directory, named by workload and seed.
func (o options) writeSpans(log *spanLog, r *report) {
	if log == nil {
		return
	}
	path := filepath.Join(o.work, fmt.Sprintf("%s-seed%d.spans.jsonl", r.Workload, r.Seed))
	if err := log.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
}

// updateGolden runs every job of w once at the default seed and stores the
// canonical results as the workload's golden.
func updateGolden(w workload, o options) error {
	jobs, err := w.jobs(defaultSeed)
	if err != nil {
		return err
	}
	var cs []canonical
	for _, j := range jobs {
		res, _, _, err := simulate(context.Background(), j, false)
		if err != nil {
			return fmt.Errorf("%s: %w", j.Key, err)
		}
		if res.Deadlocked {
			return fmt.Errorf("%s: deadlocked", j.Key)
		}
		cs = append(cs, canonicalOf(recordOf(j, res), res))
	}
	return writeGolden(filepath.Join("perfbench", "goldens"), w.name, cs)
}

// compare prints two saved reports (--out files) side by side. Reports
// measured with different GOMAXPROCS or NumCPU are refused: their host
// times do not compare.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare OLD.json NEW.json")
	}
	var rs [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := rs[0], rs[1]
	if a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.NumCPU != b.Host.NumCPU {
		return fmt.Errorf("refusing to compare: GOMAXPROCS/NumCPU %d/%d vs %d/%d",
			a.Host.GOMAXPROCS, a.Host.NumCPU, b.Host.GOMAXPROCS, b.Host.NumCPU)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare: %s trace=%t vs %s trace=%t", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "workload %s trace=%t  commits %s -> %s  gomaxprocs=%d numcpu=%d\n",
		a.Workload, a.Trace, a.Host.Commit, b.Host.Commit, a.Host.GOMAXPROCS, a.Host.NumCPU)
	for _, name := range sortedKeys(a.Metrics) {
		old := a.Metrics[name]
		cur, ok := b.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14.6g -> (missing) %s\n", name, old.Value, old.Unit)
			continue
		}
		fmt.Fprintf(w, "%-32s %14.6g -> %14.6g %-10s %+7.1f%%\n", name, old.Value, cur.Value, old.Unit,
			100*ratio(cur.Value-old.Value, old.Value))
	}
	return nil
}
