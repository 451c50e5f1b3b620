// Package gpu assembles the full simulated system: 56 SM cores and 8 memory
// controllers (Table 2) on the 2D-mesh NoC, running a workload profile. It
// is the top of the substrate stack and what every IPC experiment in the
// paper's evaluation drives.
package gpu

import (
	"context"
	"fmt"
	"math"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/mc"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/smcore"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/workload"
)

// Simulator is one configured GPU system.
type Simulator struct {
	Cfg   config.Config
	Prof  workload.Profile
	Net   noc.Interconnect
	Place *placement.Placement

	// SanitizeEvery, when > 0, makes RunContext validate the interconnect's
	// internal invariants (credit accounting, flit conservation) every
	// SanitizeEvery cycles and abort the run with an error on the first
	// violation. Sampling keeps the cost proportional to 1/N; zero (the
	// default) disables the sanitizer entirely.
	SanitizeEvery int

	// Tel, when non-nil (see Instrumentation.TelemetryEpoch), is the
	// cycle-domain observability subsystem: the run loop drives its epoch
	// sampler and the result carries it for export. Nil costs one branch
	// per cycle.
	Tel *telemetry.Telemetry

	// Spans, when non-nil (see Instrumentation.Spans), is the per-packet
	// span collector: every probe site in the fabric and the memory system
	// records lifecycle events for the deterministic sample of packets it
	// selects. Nil-gated like Tel.
	Spans *obs.Spans

	// Pub, when non-nil (see Instrumentation.Obs), publishes /metrics,
	// /state and /progress snapshots to an obs.Server at cycle boundaries.
	// Driven from Step on the simulation goroutine, so every published
	// snapshot sees a quiescent kernel.
	Pub *obs.Publisher

	// Flight, when non-nil (see AttachFlight), is the always-on flight
	// recorder: a bounded ring of recent cycle-domain events (phase
	// entries, checkpoints, invariant checks, fast-forward jumps) dumped as
	// JSONL post-mortem on panic, invariant failure, or watchdog trip. Recording never reads wall clock or
	// scheduler state and never feeds back into simulation, so results
	// stay bit-identical with it attached.
	Flight *fleetobs.Recorder

	// FlightDir is where post-mortem dumps land ("" disables dumping; the
	// ring still records for Result.Flight).
	FlightDir string

	SMs []*smcore.SM
	MCs []*mc.MC

	// FastForwarded counts the cycles the run loop jumped over instead of
	// stepping (Cfg.FastForward); results are unaffected, so this exists
	// for reporting and tests.
	FastForwarded int64

	// gpu holds the core-side counters, shared by every SM and MC.
	gpu    stats.GPU
	nextID uint64
	cycle  int64
}

// New builds a simulator for cfg running the named workload profile.
// Validation — structural and protocol-deadlock safety — is centralized in
// cfg.Validate; set cfg.AllowUnsafe to simulate a deliberately unsafe
// design and watch it wedge.
func New(cfg config.Config, prof workload.Profile) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
	pl, err := placement.New(cfg.Placement, m, cfg.Mem.NumMCs)
	if err != nil {
		return nil, err
	}
	alg, err := routing.New(cfg.NoC.Routing)
	if err != nil {
		return nil, err
	}
	usage := core.Analyze(m, pl, alg)
	asg, err := core.BuildAssigner(usage, cfg.NoC)
	if err != nil {
		return nil, err
	}

	var net noc.Interconnect
	if cfg.NoC.PhysicalSubnets {
		var subOpts []noc.Option
		if cfg.NoC.SubnetHalfWidth {
			subOpts = append(subOpts, noc.WithLinkPeriod(2))
		}
		net = noc.NewDual(cfg.NoC, alg, subOpts...)
	} else {
		net = noc.New(cfg.NoC, alg, asg)
	}

	s := &Simulator{Cfg: cfg, Prof: prof, Net: net, Place: pl}

	cores := pl.Cores()
	if len(cores) < cfg.Core.NumSMs {
		return nil, fmt.Errorf("gpu: placement leaves %d core tiles for %d SMs", len(cores), cfg.Core.NumSMs)
	}
	for i := 0; i < cfg.Core.NumSMs; i++ {
		sm := smcore.New(i, cores[i], cfg.Core, cfg.Mem, prof,
			cfg.Seed+uint64(i)*0x9e3779b9, net, pl, &s.gpu, &s.nextID)
		s.SMs = append(s.SMs, sm)
		net.SetSink(sm.Node, sm.Sink())
	}
	// Unpopulated core tiles (none in the 56+8 system, but possible in
	// ablations) simply absorb anything misrouted to them.
	for i := cfg.Core.NumSMs; i < len(cores); i++ {
		net.SetSink(cores[i], func(packet.Flit) bool { return true })
	}
	for i := range pl.MCs {
		ctrl := mc.New(i, pl.MCNode(i), cfg.Mem, net, &s.gpu)
		s.MCs = append(s.MCs, ctrl)
		net.SetSink(ctrl.Node, ctrl.Sink(func() int64 { return s.cycle }))
	}
	return s, nil
}

// NewInstrumented is New plus observability applied at construction, before
// the first cycle: telemetry when inst.TelemetryEpoch > 0, span tracing when
// inst.Spans, live HTTP exposition when inst.Obs is set. Instrumentation is
// a construction-time decision; there is no post-construction attach API.
func NewInstrumented(cfg config.Config, prof workload.Profile, inst Instrumentation) (*Simulator, error) {
	s, err := New(cfg, prof)
	if err != nil {
		return nil, err
	}
	if inst.TelemetryEpoch > 0 {
		s.attachTelemetry(inst.TelemetryEpoch)
	}
	if inst.Spans {
		if _, err := s.attachSpans(inst.SpanRate); err != nil {
			return nil, err
		}
	}
	if inst.Obs != nil {
		every := inst.PublishEvery
		if every <= 0 {
			every = defaultPublishEvery
		}
		s.attachObs(inst.Obs, every)
	}
	if inst.FlightRecorder > 0 {
		s.AttachFlight(inst.FlightRecorder, inst.FlightDir)
	}
	return s, nil
}

// AttachFlight installs the flight recorder retaining the most recent
// `size` events (rounded up to a power of two), with post-mortem dumps
// written under dir ("" keeps the ring in memory only). Call once, before
// the first cycle. Unlike the rest of the observability stack this is also
// exposed post-construction: benchmarks attach it to an already-built
// simulator to measure recorder overhead in place.
func (s *Simulator) AttachFlight(size int, dir string) *fleetobs.Recorder {
	if s.Flight != nil {
		panic("gpu: flight recorder attached twice")
	}
	r := fleetobs.NewRecorder(size)
	s.Flight = r
	s.FlightDir = dir
	return r
}

// defaultPublishEvery is the snapshot period NewInstrumented uses when an
// obs server is requested without an explicit cadence.
const defaultPublishEvery = 1024

// Instrumentation selects the observability to build into a simulator at
// construction. The zero value instruments nothing.
type Instrumentation struct {
	// TelemetryEpoch > 0 attaches the cycle-domain telemetry subsystem
	// sampling every TelemetryEpoch cycles; the result's Tel field carries
	// the collected series for export.
	TelemetryEpoch int64

	// Spans attaches per-packet span tracing at SpanRate (the fraction of
	// request packets sampled; 0 installs the collector but samples
	// nothing).
	Spans    bool
	SpanRate float64

	// Obs, when non-nil, publishes /metrics, /state and /progress snapshots
	// to the server every PublishEvery cycles (defaulted when <= 0).
	Obs          *obs.Server
	PublishEvery int64

	// FlightRecorder > 0 attaches the flight recorder retaining that many
	// recent events; FlightDir is where post-mortem dumps land ("" keeps
	// the ring in memory only).
	FlightRecorder int
	FlightDir      string
}

// Close is a no-op kept for callers that defer it after New: a simulator
// holds no goroutines or OS resources, so there is nothing to release.
func (s *Simulator) Close() {}

// attachTelemetry instruments the whole system with the cycle-domain
// observability subsystem sampling every epochLen cycles: fabric probes
// (per-link flit counters by class, VC occupancy, stall attribution,
// latency decomposition), per-MC and DRAM state, and aggregate core-side
// counters. Call once, before the first cycle; it returns the telemetry
// instance whose exporters produce the run's artifacts.
func (s *Simulator) attachTelemetry(epochLen int64) *telemetry.Telemetry {
	if s.Tel != nil {
		panic("gpu: telemetry attached twice")
	}
	t := telemetry.New(epochLen)
	s.instrument(t.Reg)
	s.Tel = t
	return t
}

// instrument registers the full probe set — fabric, per-MC, core-side — on
// reg. Shared by attachTelemetry (epoch-sampled registry) and attachObs
// (live-exposition registry when telemetry is not attached).
func (s *Simulator) instrument(reg *telemetry.Registry) {
	s.Net.AttachTelemetry(reg)
	for _, m := range s.MCs {
		m.AttachTelemetry(reg)
	}
	reg.GaugeFunc("core.instructions", func() int64 { return s.gpu.Instructions })
	reg.GaugeFunc("core.mem_requests", func() int64 { return s.gpu.MemRequests })
	reg.GaugeFunc("core.stall_cycles", func() int64 { return s.gpu.StallCycles })
	reg.GaugeFunc("core.l1_misses", func() int64 { return s.gpu.L1Misses })
	reg.GaugeFunc("core.l2_misses", func() int64 { return s.gpu.L2Misses })
}

// attachSpans installs per-packet span tracing: a deterministic sampler
// (seeded by the run's RNG seed, so reruns trace the same packets) selects
// the given fraction of request packets at injection, and every probe site
// in the fabric, the MCs, and the DRAM channels records lifecycle events
// for them and their replies. Call once, before the first cycle. Rate 0
// installs the collector but samples nothing — useful for overhead
// equivalence checks.
func (s *Simulator) attachSpans(rate float64) (*obs.Spans, error) {
	if s.Spans != nil {
		panic("gpu: spans attached twice")
	}
	sp, err := obs.NewSpans(s.Cfg.Seed, rate)
	if err != nil {
		return nil, err
	}
	s.Net.SetSpans(sp)
	for _, m := range s.MCs {
		m.SetSpans(sp)
	}
	s.Spans = sp
	return sp, nil
}

// attachObs starts live HTTP exposition on srv: every `every` cycles the
// run loop re-renders /metrics (Prometheus text from the probe registry),
// /state (the mesh-state snapshot), and /progress. If telemetry is attached
// (attach it first when using both), its registry backs /metrics; otherwise
// attachObs instruments a private registry read only at publication
// boundaries. The first snapshot publishes immediately, so the endpoints
// serve data before the first simulated cycle.
func (s *Simulator) attachObs(srv *obs.Server, every int64) *obs.Publisher {
	if s.Pub != nil {
		panic("gpu: obs publisher attached twice")
	}
	if every <= 0 {
		panic("gpu: obs publication period must be positive")
	}
	var reg *telemetry.Registry
	if s.Tel != nil {
		reg = s.Tel.Reg
	} else {
		reg = telemetry.NewRegistry()
		s.instrument(reg)
	}
	p := &obs.Publisher{
		Srv:       srv,
		Reg:       reg,
		Mesh:      mesh.New(s.Cfg.NoC.Width, s.Cfg.NoC.Height),
		State:     s.Net.StateSnapshot,
		Every:     every,
		Benchmark: s.Prof.Name,
		Warmup:    int64(s.Cfg.WarmupCycles),
		Total:     int64(s.Cfg.WarmupCycles) + int64(s.Cfg.MeasureCycles),
	}
	p.Publish(0, false)
	s.Pub = p
	return p
}

// Step advances the whole system one NoC cycle.
func (s *Simulator) Step() {
	for _, sm := range s.SMs {
		sm.Tick(s.cycle)
	}
	for _, m := range s.MCs {
		m.Tick(s.cycle)
	}
	s.Net.Step()
	s.cycle++
	if s.Tel != nil {
		s.Tel.MaybeSample(s.cycle)
	}
	if s.Pub != nil {
		s.Pub.MaybePublish(s.cycle)
	}
}

// fastForward jumps over globally idle cycles: when no flits are anywhere
// in the fabric and every SM and MC reports its next event strictly in the
// future, every intervening Step would be a no-op apart from three exactly
// compensable per-cycle effects — the SMs' stall counters (bulk-added), the
// MCs' service-token refresh (recomputed over the span), and telemetry
// epoch sampling. The jump advances in chunks that land exactly on each
// telemetry epoch boundary, applying compensation before sampling, so
// every epoch inside the span flushes with the same cycle stamp and the
// same probe readings a stepped run would record — byte-identical series.
// Skips at most maxSkip cycles and returns the number skipped (0 when the
// system is not idle).
func (s *Simulator) fastForward(maxSkip int64) int64 {
	if maxSkip <= 0 || s.Net.FlitsInFlight() != 0 {
		return 0
	}
	h := int64(math.MaxInt64)
	for _, sm := range s.SMs {
		e := sm.NextEvent(s.cycle)
		if e <= s.cycle {
			return 0
		}
		if e < h {
			h = e
		}
	}
	for _, m := range s.MCs {
		e := m.NextEvent(s.cycle)
		if e <= s.cycle {
			return 0
		}
		if e < h {
			h = e
		}
	}
	if limit := s.cycle + maxSkip; h > limit {
		h = limit
	}
	start := s.cycle
	for s.cycle < h {
		to := h
		if s.Tel != nil {
			if b := (s.cycle/s.Tel.EpochLen + 1) * s.Tel.EpochLen; b < to {
				to = b
			}
		}
		delta := to - s.cycle
		for _, sm := range s.SMs {
			sm.FastForward(delta)
		}
		for _, m := range s.MCs {
			m.FastForward(s.cycle, to-1)
		}
		s.Net.FastForward(delta)
		s.cycle = to
		if s.Tel != nil {
			s.Tel.MaybeSample(s.cycle)
		}
	}
	// One live snapshot per crossed publication boundary would only repeat
	// identical idle state; publish once at the landing cycle instead so
	// /progress keeps moving.
	if s.Pub != nil && s.cycle/s.Pub.Every > start/s.Pub.Every {
		s.Pub.Publish(s.cycle, false)
	}
	s.FastForwarded += s.cycle - start
	s.Flight.Record(s.cycle, fleetobs.KindFastForward, s.cycle-start, s.FastForwarded, 0)
	return s.cycle - start
}

// Result summarizes one run.
type Result struct {
	Benchmark  string
	IPC        float64
	Cycles     int64
	Deadlocked bool

	GPU stats.GPU
	Net *stats.Net

	// Tel carries the telemetry subsystem when the run was instrumented
	// (Instrumentation.TelemetryEpoch); nil otherwise. Its exporters write
	// the run's time-series, heatmap, and trace artifacts.
	Tel *telemetry.Telemetry

	// Spans carries the per-packet span collector when the run was traced
	// (Instrumentation.Spans); nil otherwise. Its exporters write the span
	// JSONL log and the Chrome trace-event file.
	Spans *obs.Spans

	// FastForwarded counts the cycles the run loop jumped over instead of
	// stepping — part of the job's resource footprint.
	FastForwarded int64

	// Flight carries the flight recorder when one was attached
	// (AttachFlight); nil otherwise.
	Flight *fleetobs.Recorder
}

// Metrics condenses the run into the flat, JSON-encodable summary the
// sweep engine records per job.
func (r Result) Metrics() stats.Metrics { return stats.Collect(r.GPU, r.Net) }

// Run simulates warmup then measurement and returns the results. The
// deadlock watchdog aborts wedged runs (Deadlocked set, stats best-effort).
func (s *Simulator) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cooperative cancellation: the simulation loop
// checks ctx every 512 cycles and, when cancelled, returns the partial
// result alongside ctx's error. This is what gives sweep jobs real
// timeouts — a cancelled job stops simulating instead of leaking a
// goroutine until it finishes on its own.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	const watchdogWindow = 2048
	ff := s.Cfg.FastForward
	if s.Flight != nil {
		defer func() {
			if r := recover(); r != nil {
				s.Flight.Record(s.cycle, fleetobs.KindPanic, 0, 0, 0)
				s.dumpFlight("panic")
				panic(r)
			}
		}()
	}

	s.Net.EnableStats(false)
	s.Flight.Record(s.cycle, fleetobs.KindPhase, 0, 0, 0)
	for i := 0; i < s.Cfg.WarmupCycles; i++ {
		s.Step()
		if err := s.sanitize(); err != nil {
			return s.result(false, int64(i)), err
		}
		if ff {
			// Cap each jump at the next watchdog/cancellation checkpoint
			// (i ≡ 511 mod 512) and at the phase end, so the checks below
			// run at exactly the loop indices a stepped run would check.
			i += int(s.fastForward(min(int64((i|511)-i), int64(s.Cfg.WarmupCycles-1-i))))
		}
		if i%512 == 511 {
			if err := ctx.Err(); err != nil {
				return s.result(false, int64(i)), err
			}
			s.Flight.Record(s.cycle, fleetobs.KindCheckpoint, int64(s.Net.FlitsInFlight()), s.FastForwarded, 0)
			if s.Net.Quiescent(watchdogWindow) {
				s.flightWatchdog()
				return s.result(true, int64(i)), nil
			}
		}
	}

	before := s.gpu
	s.Net.EnableStats(true)
	s.Flight.Record(s.cycle, fleetobs.KindPhase, 1, 0, 0)
	for i := 0; i < s.Cfg.MeasureCycles; i++ {
		s.Step()
		if err := s.sanitize(); err != nil {
			return s.result(false, int64(i)), err
		}
		if ff {
			i += int(s.fastForward(min(int64((i|511)-i), int64(s.Cfg.MeasureCycles-1-i))))
		}
		if i%512 == 511 {
			if err := ctx.Err(); err != nil {
				return s.result(false, int64(i)), err
			}
			s.Flight.Record(s.cycle, fleetobs.KindCheckpoint, int64(s.Net.FlitsInFlight()), s.FastForwarded, 0)
			if s.Net.Quiescent(watchdogWindow) {
				s.flightWatchdog()
				return s.result(true, int64(i)), nil
			}
		}
	}

	res := s.result(false, int64(s.Cfg.MeasureCycles))
	res.GPU = delta(before, s.gpu)
	res.GPU.Cycles = int64(s.Cfg.MeasureCycles)
	res.IPC = res.GPU.IPC()
	return res, nil
}

// sanitize runs the sampled interconnect invariant check when enabled; a
// violation is a simulator bug (or corrupted state), reported as an error
// rather than left to surface as a silent hang or skewed statistics.
func (s *Simulator) sanitize() error {
	if s.SanitizeEvery <= 0 || s.cycle%int64(s.SanitizeEvery) != 0 {
		return nil
	}
	if err := s.Net.CheckInvariants(); err != nil {
		s.Flight.Record(s.cycle, fleetobs.KindInvariantFail, 0, 0, 0)
		if path := s.dumpFlight("invariant"); path != "" {
			return fmt.Errorf("gpu: sanitizer at cycle %d (flight dump: %s): %w", s.cycle, path, err)
		}
		return fmt.Errorf("gpu: sanitizer at cycle %d: %w", s.cycle, err)
	}
	s.Flight.Record(s.cycle, fleetobs.KindInvariantOK, 0, 0, 0)
	return nil
}

// flightWatchdog records a deadlock-watchdog trip and writes the
// post-mortem dump; the cycles leading up to a wedge are exactly what the
// recorder exists to preserve.
func (s *Simulator) flightWatchdog() {
	s.Flight.Record(s.cycle, fleetobs.KindWatchdog, int64(s.Net.FlitsInFlight()), 0, 0)
	s.dumpFlight("watchdog")
}

// dumpFlight writes the flight recorder's JSONL snapshot under FlightDir,
// named <benchmark>-s<seed>-<reason>, returning the path ("" when no
// recorder or dump dir is configured, or on write failure — dumping is
// post-mortem best-effort and never masks the original failure).
func (s *Simulator) dumpFlight(reason string) string {
	if s.Flight == nil || s.FlightDir == "" {
		return ""
	}
	name := fmt.Sprintf("%s-s%d-%s", s.Prof.Name, s.Cfg.Seed, reason)
	path, err := s.Flight.Dump(s.FlightDir, name, "gpu", reason)
	if err != nil {
		return ""
	}
	return path
}

func (s *Simulator) result(deadlocked bool, cycles int64) Result {
	st := s.Net.Stats()
	st.Cycles = cycles
	g := s.gpu
	g.Cycles = cycles
	if s.Tel != nil {
		// Close the time-series with the run's final state so partial
		// epochs (cancellation, deadlock, odd run lengths) are captured.
		s.Tel.Flush(s.cycle)
	}
	if s.Pub != nil {
		// Final snapshot so late scrapes see the completed run.
		s.Pub.Publish(s.cycle, true)
	}
	return Result{
		Benchmark:     s.Prof.Name,
		IPC:           g.IPC(),
		Cycles:        cycles,
		Deadlocked:    deadlocked,
		GPU:           g,
		Net:           st,
		Tel:           s.Tel,
		Spans:         s.Spans,
		FastForwarded: s.FastForwarded,
		Flight:        s.Flight,
	}
}

func delta(before, after stats.GPU) stats.GPU {
	return stats.GPU{
		Instructions:    after.Instructions - before.Instructions,
		MemRequests:     after.MemRequests - before.MemRequests,
		L1Hits:          after.L1Hits - before.L1Hits,
		L1Misses:        after.L1Misses - before.L1Misses,
		L2Hits:          after.L2Hits - before.L2Hits,
		L2Misses:        after.L2Misses - before.L2Misses,
		InstFetchMisses: after.InstFetchMisses - before.InstFetchMisses,
		StallCycles:     after.StallCycles - before.StallCycles,
	}
}

// RunOptions configures one Run call. The zero value is the plain
// uninstrumented run on the configured kernel.
type RunOptions struct {
	// SanitizeEvery > 0 validates the interconnect's internal invariants
	// every SanitizeEvery cycles, aborting the run with an error on the
	// first violation.
	SanitizeEvery int

	// TelemetryEpoch > 0 attaches the telemetry subsystem sampling every
	// TelemetryEpoch cycles; the result's Tel field carries the series.
	TelemetryEpoch int64

	// Spans attaches per-packet span tracing at SpanRate; see
	// Instrumentation.
	Spans    bool
	SpanRate float64

	// FastForward turns on idle-cycle skipping (see Config.FastForward);
	// it never turns a configured-on value off. Results are bit-identical
	// either way.
	FastForward bool

	// FlightRecorder > 0 attaches the flight recorder retaining that many
	// recent events; FlightDir is where post-mortem dumps land ("" keeps
	// the ring in memory only). See Instrumentation.
	FlightRecorder int
	FlightDir      string
}

// Run is the one-call runner: build a simulator for cfg and the named
// benchmark with the requested instrumentation, simulate warmup then
// measurement under ctx's cancellation, and return the result. On cancellation the partial result is returned
// together with ctx's error.
func Run(ctx context.Context, cfg config.Config, benchmark string, opts RunOptions) (Result, error) {
	prof, err := workload.Get(benchmark)
	if err != nil {
		return Result{}, err
	}
	if opts.FastForward {
		cfg.FastForward = true
	}
	sim, err := NewInstrumented(cfg, prof, Instrumentation{
		TelemetryEpoch: opts.TelemetryEpoch,
		Spans:          opts.Spans,
		SpanRate:       opts.SpanRate,
		FlightRecorder: opts.FlightRecorder,
		FlightDir:      opts.FlightDir,
	})
	if err != nil {
		return Result{}, err
	}
	sim.SanitizeEvery = opts.SanitizeEvery
	return sim.RunContext(ctx)
}
