// Command sweep runs a design-space sweep: a grid of independent
// simulations defined by a JSON spec file or by flags, executed on a
// bounded worker pool with per-job timeouts and panic isolation, streaming
// one JSONL record per job so partial results are usable and re-runs
// resume where they left off.
//
// Beyond the default single-process mode, the same binary is the
// distributed sweep fabric (internal/fabric): `-serve` runs the shared
// coordinator — expanding submitted specs, leasing jobs to workers, and
// caching every result in a content-addressed store so identical
// configurations are never simulated twice — and `-connect` runs a worker
// against it.
//
// Examples:
//
//	sweep -spec examples/sweepspec.json -out results.jsonl
//	sweep -benchmarks KMN,BFS -routings xy,yx -vcpolicies split,monopolized -seeds 1,2
//	sweep -spec examples/sweepspec.json -out results.jsonl            # re-run: resumes
//	sweep -spec examples/sweepspec.json -dry-run                      # list the grid
//
//	sweep -serve 127.0.0.1:9178 -spec examples/sweepspec.json         # coordinator
//	sweep -connect http://127.0.0.1:9178                              # worker (run several)
//	curl http://127.0.0.1:9178/sweeps/<id>/results                    # results, fixed order
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/fabric"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/profiling"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/workload"
)

func main() {
	var (
		specFile = flag.String("spec", "", "JSON sweep spec file (grid flags are ignored when set)")
		out      = flag.String("out", "sweep.jsonl", "JSONL results file (appended)")
		jobsN    = flag.Int("jobs", 0, "concurrent jobs (default GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "per-job timeout, e.g. 30s (default none)")
		resume   = flag.Bool("resume", true, "skip jobs whose fingerprint is already in -out")
		ordered  = flag.Bool("ordered", false, "write records in grid (expansion) order instead of completion order, so result files of the same spec diff cleanly")
		dryRun   = flag.Bool("dry-run", false, "print the expanded job list and exit")
		quiet    = flag.Bool("quiet", false, "suppress per-job progress lines")
		panicAt  = flag.Int("panic-at", -1, "inject a panic into the Nth job (failure-isolation testing)")
		sanitize = flag.Int("sanitize", 0, "validate interconnect invariants every N cycles (0 = off)")

		telEpoch = flag.Int64("telemetry-epoch", 0, "sample cycle-domain telemetry every N cycles (0 = off)")
		telDir   = flag.String("telemetry-dir", "", "directory for per-job telemetry artifacts (default: <out>.telemetry)")

		obsAddr = flag.String("obs-addr", "", "serve live sweep /metrics, /state, /progress on this address (empty = off)")

		flightN   = flag.Int("flight-recorder", 4096, "flight-recorder ring size in events (0 = off); dumps recent cycle-domain events as JSONL on panic, invariant failure, or watchdog trip")
		flightDir = flag.String("flight-dir", "", "directory for flight-recorder post-mortem dumps (default: <out>.flight)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file at exit")

		benchmarks = flag.String("benchmarks", "", "comma-separated benchmarks ("+strings.Join(workload.Names(), ",")+"); default all")
		placements = flag.String("placements", "", "comma-separated placement grid (default: base placement)")
		routings   = flag.String("routings", "", "comma-separated routing grid (default: base routing)")
		vcpolicies = flag.String("vcpolicies", "", "comma-separated VC policy grid (default: base policy)")
		vcsList    = flag.String("vcs-grid", "", "comma-separated VCs-per-port grid (default: base)")
		depthList  = flag.String("depth-grid", "", "comma-separated VC depth grid (default: base)")
		seeds      = flag.String("seeds", "", "comma-separated seed grid (default: base seed)")
		skipBad    = flag.Bool("skip-invalid", true, "drop grid points failing validation instead of erroring")
	)
	fab := config.BindFabricFlags(flag.CommandLine)
	// The base configuration under the grid comes from the shared
	// flag→config API, so `-config file.json` or `-vcs 4` shapes every job.
	cf := config.BindFlags(flag.CommandLine)
	flag.Parse()

	if err := config.ValidateTelemetryEpoch(*telEpoch); err != nil {
		fatal(err)
	}
	if err := fab.Validate(); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The instruments compose into one options value: sanitizer, telemetry,
	// and the flight recorder all thread through gpu.RunOptions; fault
	// injection (single mode) then wraps the runner rather than replacing
	// it, so every job except the targeted one still simulates for real.
	fdir := *flightDir
	if fdir == "" {
		fdir = *out + ".flight"
	}
	ropts := gpu.RunOptions{
		SanitizeEvery:  *sanitize,
		FlightRecorder: *flightN,
		FlightDir:      fdir,
	}
	telemetryDir := ""
	if *telEpoch > 0 {
		ropts.TelemetryEpoch = *telEpoch
		telemetryDir = *telDir
		if telemetryDir == "" {
			telemetryDir = *out + ".telemetry"
		}
	}
	runner := sweep.SimulateOpts(ropts)

	switch fab.Mode() {
	case "serve":
		if err := runServe(ctx, fab, *specFile, *out, *flightN, fdir); err != nil {
			fatal(err)
		}
		return
	case "connect":
		if *telEpoch > 0 {
			// The flight recorder stays on — dumps are per-process and land
			// on the worker's own disk where its crash is diagnosed.
			fmt.Fprintln(os.Stderr, "sweep: -telemetry-epoch is ignored in worker mode (artifacts would be stranded on the worker)")
			wopts := ropts
			wopts.TelemetryEpoch = 0
			runner = sweep.SimulateOpts(wopts)
		}
		if err := runWorker(ctx, fab, runner, *jobsN, *timeout); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	spec, err := buildSpec(*specFile, cf, gridFlags{
		benchmarks: *benchmarks, placements: *placements, routings: *routings,
		vcpolicies: *vcpolicies, vcs: *vcsList, depths: *depthList, seeds: *seeds,
		skipInvalid: *skipBad,
	})
	if err != nil {
		fatal(err)
	}

	jobs, skipped, err := spec.Expand()
	if err != nil {
		fatal(err)
	}
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "skip-invalid %s: %s\n", s.Key, s.Reason)
	}

	if *dryRun {
		for _, j := range jobs {
			fmt.Printf("%s %s\n", j.Fingerprint(), j.Key)
		}
		fmt.Printf("%d jobs (%d invalid grid points dropped)\n", len(jobs), len(skipped))
		return
	}

	done := map[string]bool{}
	if *resume {
		var warning string
		if done, warning, err = sweep.CompletedFingerprints(*out); err != nil {
			fatal(err)
		}
		if warning != "" {
			fmt.Fprintf(os.Stderr, "sweep: resume from %s: %s\n", *out, warning)
		}
	}
	jsonl, err := sweep.OpenJSONL(*out)
	if err != nil {
		fatal(err)
	}
	var sink sweep.Sink = jsonl
	var orderedSink *sweep.Ordered
	if *ordered {
		orderedSink = sweep.NewOrdered(jsonl, jobs)
		sink = orderedSink
	}

	opts := sweep.Options{Workers: *jobsN, Timeout: *timeout, Done: done, TelemetryDir: telemetryDir}
	var printer *sweep.Printer
	if !*quiet {
		printer = sweep.NewPrinter(os.Stderr, len(jobs))
		opts.Progress = printer.Handle
	}
	if *obsAddr != "" {
		srv, err := obs.NewServer(*obsAddr)
		if err != nil {
			fatal(err)
		}
		nw := *jobsN
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		tracker := obs.NewSweepTracker(srv, len(jobs), nw)
		// Chain the tracker behind the printer: one engine callback feeds
		// both the terminal progress lines and the HTTP exposition.
		prev := opts.Progress
		opts.Progress = func(ev sweep.Event) {
			if prev != nil {
				prev(ev)
			}
			switch ev.Type {
			case sweep.EventStart:
				tracker.JobStart(ev.Job.Key)
			case sweep.EventDone:
				tracker.JobDone(ev.Job.Key, ev.IPC, ev.Cycles, ev.Elapsed)
			case sweep.EventFail:
				tracker.JobFail(ev.Job.Key, ev.Err)
			case sweep.EventSkip:
				tracker.JobSkip(ev.Job.Key)
			}
		}
		fmt.Fprintf(os.Stderr, "observability: http://%s/{metrics,state,progress,healthz}\n", srv.Addr())
	}
	opts.Run = runner
	if *panicAt >= 0 {
		target := jobs[min(*panicAt, len(jobs)-1)].Key
		opts.Run = func(ctx context.Context, j sweep.Job) (gpu.Result, error) {
			if j.Key == target {
				panic(fmt.Sprintf("injected panic in job %s (-panic-at %d)", j.Key, *panicAt))
			}
			return runner(ctx, j)
		}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	outs, runErr := sweep.Run(ctx, jobs, sink, opts)
	summary := sweep.Summarize(outs)
	if orderedSink != nil {
		if ferr := orderedSink.Flush(); ferr != nil && runErr == nil {
			runErr = ferr
		}
	}
	if cerr := jsonl.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if printer != nil {
		printer.Finish(summary)
	} else {
		fmt.Fprintf(os.Stderr, "sweep finished in %.1fs: %s\n", time.Since(start).Seconds(), summary)
	}
	fmt.Printf("results: %s (%d records this run)\n", *out, summary.OK+summary.Failed)
	// Flush profiles before any exit: a failed sweep is exactly when the
	// profile is most wanted.
	if perr := stopProf(); perr != nil && runErr == nil {
		runErr = perr
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// runServe runs the fabric coordinator: open the content-addressed store,
// serve the submit/lease/results API, optionally submit an initial spec,
// and hold until interrupted.
func runServe(ctx context.Context, fab *config.Fabric, specFile, out string, flightN int, flightDir string) error {
	storeDir := fab.StoreDir
	if storeDir == "" {
		storeDir = out + ".store"
	}
	store, err := fabric.OpenStore(storeDir)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if flightN <= 0 {
		flightN = -1 // CLI off means off, not the coordinator default
	}
	co := fabric.NewCoordinator(store, fabric.Options{
		LeaseTTL:     fab.LeaseTTL,
		LeaseJobs:    fab.LeaseJobs,
		MaxAttempts:  fab.MaxAttempts,
		Heartbeat:    fab.Heartbeat,
		FlightEvents: flightN,
		FlightDir:    flightDir,
		Logf:         logf,
	})
	srv, err := fabric.NewServer(fab.Serve, co)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "coordinator: http://%s/{submit,sweeps,results,workers,metrics,progress,healthz}\n", srv.Addr())
	fmt.Fprintf(os.Stderr, "store: %s (%d cached results)\n", storeDir, store.Len())

	if specFile != "" {
		spec, err := sweep.ReadSpec(specFile)
		if err != nil {
			return err
		}
		resp, err := co.Submit(spec)
		if err != nil {
			return err
		}
		fmt.Printf("sweep %s: %d jobs (%d cached, %d pending, %d skipped)\n",
			resp.SweepID, resp.Total, resp.Cached, resp.Pending, resp.Skipped)
		fmt.Printf("results: http://%s/sweeps/%s/results\n", srv.Addr(), resp.SweepID)
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "coordinator: shutting down")
	return nil
}

// runWorker runs the fabric worker loop against a coordinator until
// interrupted.
func runWorker(ctx context.Context, fab *config.Fabric, runner sweep.RunFunc, jobs int, timeout time.Duration) error {
	name, _ := os.Hostname()
	name = fmt.Sprintf("%s/%d", name, os.Getpid())
	w := fabric.NewWorker(fab.Connect, fabric.WorkerOptions{
		Name:    name,
		Run:     runner,
		Jobs:    jobs,
		Timeout: timeout,
		ObsAddr: fab.WorkerObs,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "worker %s: connecting to %s\n", name, fab.Connect)
	return w.Run(ctx)
}

type gridFlags struct {
	benchmarks, placements, routings, vcpolicies, vcs, depths, seeds string
	skipInvalid                                                      bool
}

// buildSpec assembles the sweep spec from a file or from the grid flags
// layered over the shared base configuration.
func buildSpec(specFile string, cf *config.Flags, g gridFlags) (sweep.Spec, error) {
	if specFile != "" {
		return sweep.ReadSpec(specFile)
	}
	base, err := cf.Config()
	if err != nil {
		return sweep.Spec{}, err
	}
	spec := sweep.Spec{Base: &base, SkipInvalid: g.skipInvalid}
	spec.Benchmarks = splitList(g.benchmarks)
	for _, p := range splitList(g.placements) {
		spec.Placements = append(spec.Placements, config.Placement(p))
	}
	for _, r := range splitList(g.routings) {
		spec.Routings = append(spec.Routings, config.Routing(r))
	}
	for _, v := range splitList(g.vcpolicies) {
		spec.VCPolicies = append(spec.VCPolicies, config.VCPolicy(v))
	}
	if spec.VCsPerPort, err = splitInts(g.vcs); err != nil {
		return sweep.Spec{}, fmt.Errorf("-vcs-grid: %w", err)
	}
	if spec.VCDepths, err = splitInts(g.depths); err != nil {
		return sweep.Spec{}, fmt.Errorf("-depth-grid: %w", err)
	}
	for _, s := range splitList(g.seeds) {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("-seeds: %w", err)
		}
		spec.Seeds = append(spec.Seeds, n)
	}
	return spec, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
