// Stepper-equivalence suite: the event-sparse active-set cycle kernel must
// be indistinguishable from the naive full-scan reference stepper — not
// statistically close, bit-identical — and so must a run with idle-cycle
// fast-forward. Anything less means the active set dropped a wakeup or an
// arbitration got reordered, and every derived result (figure tables,
// latency distributions, telemetry) silently drifts.
//
// Coverage: the eight Figure 9 schemes (every placement, routing, and VC
// policy family) × three seeds, plus the dual physical subnets with full- and half-width channels, each compared on
// IPC, cycle count, the complete stats.Net (including floating-point
// Welford latency accumulators, which pin the ejection order), and the
// full telemetry JSONL export. Runs are sanitized, so CheckInvariants —
// including the active-set invariant — is exercised under the optimized
// path throughout.
package gpgpunoc_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// equivCfg is a reduced-scale configuration: long enough that traffic
// saturates the MC rows and backpressure (the active set's hard case)
// appears, short enough that the whole suite stays in seconds.
func equivCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 1600
	return cfg
}

// runOne runs the benchmark instrumented (telemetry every 400 cycles) and
// sanitized (invariants every 256 cycles).
func runOne(t *testing.T, cfg config.Config, bench string) gpu.Result {
	t.Helper()
	res, err := gpu.Run(context.Background(), cfg, bench, gpu.RunOptions{
		SanitizeEvery:  256,
		TelemetryEpoch: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBoth runs the same benchmark under both steppers.
func runBoth(t *testing.T, cfg config.Config, bench string) (opt, ref gpu.Result) {
	t.Helper()
	run := func(reference bool) gpu.Result {
		c := cfg
		c.NoC.ReferenceStepper = reference
		return runOne(t, c, bench)
	}
	return run(false), run(true)
}

// compareResults asserts bit-identical observable state between the two
// steppers.
func compareResults(t *testing.T, opt, ref gpu.Result) {
	t.Helper()
	if opt.IPC != ref.IPC {
		t.Errorf("IPC diverged: active-set %v, reference %v", opt.IPC, ref.IPC)
	}
	if opt.Cycles != ref.Cycles || opt.Deadlocked != ref.Deadlocked {
		t.Errorf("run shape diverged: cycles %d/%d, deadlocked %v/%v",
			opt.Cycles, ref.Cycles, opt.Deadlocked, ref.Deadlocked)
	}
	if !reflect.DeepEqual(opt.GPU, ref.GPU) {
		t.Errorf("GPU stats diverged")
	}
	if !reflect.DeepEqual(opt.Net, ref.Net) {
		t.Errorf("network stats diverged (latency accumulators are order-sensitive: check ejection ordering)")
	}
	var ob, rb bytes.Buffer
	if err := opt.Tel.WriteJSONL(&ob); err != nil {
		t.Fatal(err)
	}
	if err := ref.Tel.WriteJSONL(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ob.Bytes(), rb.Bytes()) {
		t.Errorf("telemetry export diverged (%d vs %d bytes)", ob.Len(), rb.Len())
	}
}

// TestStepperEquivalenceFig9Schemes covers the full Figure 9 design space,
// three seeds each: active-set vs reference stepper.
func TestStepperEquivalenceFig9Schemes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed design-space sweep")
	}
	for _, s := range experiments.Fig9Schemes() {
		for _, seed := range []uint64{1, 7, 1234577} {
			t.Run(fmt.Sprintf("%s/seed=%d", s.Label, seed), func(t *testing.T) {
				t.Parallel()
				cfg := s.Apply(equivCfg())
				cfg.Seed = seed
				opt, ref := runBoth(t, cfg, "KMN")
				compareResults(t, opt, ref)
			})
		}
	}
}

// TestStepperEquivalenceDual covers the two-physical-subnets design, with
// full-width and half-width (linkPeriod=2) channels.
func TestStepperEquivalenceDual(t *testing.T) {
	for _, half := range []bool{false, true} {
		t.Run(fmt.Sprintf("halfwidth=%v", half), func(t *testing.T) {
			t.Parallel()
			cfg := equivCfg()
			cfg.NoC.PhysicalSubnets = true
			cfg.NoC.SubnetHalfWidth = half
			cfg.NoC.VCsPerPort = 4 // 2 per subnet
			opt, ref := runBoth(t, cfg, "RED")
			compareResults(t, opt, ref)
		})
	}
}

// TestStepperEquivalenceAsymmetric covers the Figure 10 asymmetric VC
// partition (1 request : 3 reply), which stresses uneven per-class ranges
// in the precomputed injection and link VC tables.
func TestStepperEquivalenceAsymmetric(t *testing.T) {
	cfg := equivCfg()
	cfg.NoC.VCsPerPort = 4
	cfg.NoC.Routing = config.RoutingXYYX
	cfg.NoC.VCPolicy = config.VCAsymmetric
	opt, ref := runBoth(t, cfg, "BFS")
	compareResults(t, opt, ref)
}

// TestFigureTableEquivalence regenerates a figure table under the
// active-set kernel and under the reference stepper and requires the
// rendered tables to be byte-identical — the property that makes the
// regenerated EXPERIMENTS.md trustworthy regardless of kernel or job
// concurrency.
func TestFigureTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a figure grid twice")
	}
	base := experiments.Opts{
		Benchmarks:    []string{"KMN", "RED"},
		WarmupCycles:  400,
		MeasureCycles: 1600,
	}
	refTrue := true
	ref := base
	ref.Parallel = 1
	ref.Overrides = config.Overrides{ReferenceStepper: &refTrue}

	optTab, err := experiments.Fig7(base)
	if err != nil {
		t.Fatal(err)
	}
	refTab, err := experiments.Fig7(ref)
	if err != nil {
		t.Fatal(err)
	}
	if optTab.String() != refTab.String() {
		t.Errorf("Fig7 table diverged between kernels:\nactive-set:\n%s\nreference:\n%s", optTab, refTab)
	}

	// The synthetic-harness sweep exercises the custom RunFunc path.
	optSweep, err := experiments.Sweep(experiments.Opts{MeasureCycles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	refSweep, err := experiments.Sweep(experiments.Opts{MeasureCycles: 1500, Parallel: 1, Overrides: config.Overrides{ReferenceStepper: &refTrue}})
	if err != nil {
		t.Fatal(err)
	}
	if optSweep.String() != refSweep.String() {
		t.Errorf("Sweep table diverged between kernels:\nactive-set:\n%s\nreference:\n%s", optSweep, refSweep)
	}
}

// idleProfile is a pure-compute workload with long deterministic sleeps:
// every warp issues one 600-cycle op per wakeup and the system generates no
// memory traffic at all, so the fabric stays empty and most cycles are
// globally idle — the case fast-forward exists for.
func idleProfile() workload.Profile {
	return workload.Profile{
		Name: "IDLE", Suite: "synthetic",
		Locality: 0.5, FootprintBytes: 256 << 10,
		RunAhead: 4, LongOpFraction: 1, LongOpLatency: 600,
	}
}

// trickleProfile sleeps like idleProfile but issues occasional loads, so
// idle spans interleave with real NoC/MC/DRAM activity — the case that
// exercises the service-token and stall compensation at span edges.
func trickleProfile() workload.Profile {
	return workload.Profile{
		Name: "TRICKLE", Suite: "synthetic",
		MemFraction: 0.03, Locality: 0.6, FootprintBytes: 1 << 20,
		RunAhead: 2, LongOpFraction: 1, LongOpLatency: 900,
	}
}

// runProfile runs an unregistered profile on a full instrumented simulator
// (telemetry every 400 cycles, sanitizer every 256) and returns the result
// plus the cycles fast-forward skipped.
func runProfile(t *testing.T, cfg config.Config, prof workload.Profile, ff bool) (gpu.Result, int64) {
	t.Helper()
	c := cfg
	if ff {
		c.FastForward = true
	}
	sim, err := gpu.NewInstrumented(c, prof, gpu.Instrumentation{TelemetryEpoch: 400})
	if err != nil {
		t.Fatal(err)
	}
	sim.SanitizeEvery = 256
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, sim.FastForwarded
}

// TestStepperEquivalenceFastForward covers the full Figure 9 design space,
// three seeds each, with idle-cycle fast-forward on vs off: IPC, stats, and
// telemetry bytes must be identical whether idle cycles are stepped or
// skipped.
func TestStepperEquivalenceFastForward(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed design-space sweep")
	}
	for _, s := range experiments.Fig9Schemes() {
		for _, seed := range []uint64{1, 7, 1234577} {
			t.Run(fmt.Sprintf("%s/seed=%d", s.Label, seed), func(t *testing.T) {
				t.Parallel()
				cfg := s.Apply(equivCfg())
				cfg.Seed = seed
				base := runOne(t, cfg, "KMN")
				ffCfg := cfg
				ffCfg.FastForward = true
				compareResults(t, runOne(t, ffCfg, "KMN"), base)
			})
		}
	}
}

// TestStepperEquivalenceFastForwardIdle pins fast-forward on workloads that
// actually trigger it: a pure-compute profile (fabric always empty; the
// skip must cover most of the run) and a trickle profile whose idle spans
// border real memory traffic (exercising the span-edge compensation). Both
// must match the stepped run and the reference stepper bit-for-bit.
func TestStepperEquivalenceFastForwardIdle(t *testing.T) {
	cfg := equivCfg()
	for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			base, _ := runProfile(t, cfg, prof, false)
			ff, skipped := runProfile(t, cfg, prof, true)
			t.Logf("%s: fast-forwarded %d of %d cycles", prof.Name, skipped,
				cfg.WarmupCycles+cfg.MeasureCycles)
			if skipped == 0 {
				t.Fatalf("%s never fast-forwarded", prof.Name)
			}
			compareResults(t, ff, base)

			rcfg := cfg
			rcfg.NoC.ReferenceStepper = true
			ref, _ := runProfile(t, rcfg, prof, false)
			compareResults(t, ff, ref)
		})
	}
}

// TestStepperEquivalenceSoak runs fast-forward over a longer run, on both a
// memory-bound and a mostly idle workload, and requires bit-identity with
// the plain stepped run.
func TestStepperEquivalenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := equivCfg()
	cfg.WarmupCycles = 800
	cfg.MeasureCycles = 4000
	soak := cfg
	soak.FastForward = true

	compareResults(t, runOne(t, soak, "KMN"), runOne(t, cfg, "KMN"))

	prof := idleProfile()
	pbase, _ := runProfile(t, cfg, prof, false)
	sres, skipped := runProfile(t, soak, prof, true)
	if skipped == 0 {
		t.Fatal("soak never fast-forwarded")
	}
	compareResults(t, sres, pbase)
}

// TestReferenceStepperFlagPlumbing ensures the -reference-stepper override
// reaches the network for single, scheme-modified, and dual configurations.
func TestReferenceStepperFlagPlumbing(t *testing.T) {
	on := true
	base := config.Default()
	cfg := config.Overrides{ReferenceStepper: &on}.Apply(base)
	if !cfg.NoC.ReferenceStepper {
		t.Fatal("override did not set NoC.ReferenceStepper")
	}
	cfg = core.BestProposed.Apply(cfg)
	if !cfg.NoC.ReferenceStepper {
		t.Fatal("scheme application dropped NoC.ReferenceStepper")
	}
}
