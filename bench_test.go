// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus ablation benches for the design choices DESIGN.md
// calls out and microbenchmarks of the hot simulator paths.
//
// Figure benches run a reduced configuration (a representative benchmark
// subset at shorter windows) so `go test -bench=.` completes in minutes;
// cmd/experiments regenerates the full-scale tables recorded in
// EXPERIMENTS.md. Headline numbers are attached as custom benchmark metrics
// (e.g. geomean_speedup) and the full table is printed once per bench.
package gpgpunoc_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"gpgpunoc/internal/cache"
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/dram"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/synthetic"
	"gpgpunoc/internal/vc"
	"gpgpunoc/internal/workload"
)

// benchOpts is the reduced scale used by the figure benches: a spread of
// memory-bound, write-heavy and compute-bound benchmarks.
func benchOpts() experiments.Opts {
	return experiments.Opts{
		Benchmarks:    []string{"CP", "RAY", "RED", "KMN", "BFS", "SRAD"},
		WarmupCycles:  1000,
		MeasureCycles: 6000,
	}
}

// geomeanOf extracts a numeric cell from the table's Geomean row by column
// label.
func geomeanOf(b *testing.B, tab *experiments.Table, column string) float64 {
	b.Helper()
	col := -1
	for i, c := range tab.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		b.Fatalf("no column %q in %s", column, tab.ID)
	}
	for _, r := range tab.Rows {
		if r[0] == "Geomean" {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}
	}
	b.Fatalf("no Geomean row in %s", tab.ID)
	return 0
}

func printOnce(b *testing.B, done *bool, tab *experiments.Table) {
	if !*done {
		*done = true
		fmt.Fprintf(os.Stderr, "\n%s", tab.String())
	}
}

// BenchmarkFig2TrafficVolumes regenerates Figure 2 (request vs reply
// traffic volumes) and reports the geomean reply:request flit ratio
// (paper: ~2).
func BenchmarkFig2TrafficVolumes(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
		b.ReportMetric(geomeanOf(b, tab, "MC-to-Core (Reply)"), "reply_to_request_ratio")
	}
}

// BenchmarkFig3PacketTypes regenerates Figure 3 (packet type distribution).
func BenchmarkFig3PacketTypes(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
	}
}

// BenchmarkFig4LinkLoads regenerates the Figure 4 / Equation 2 link-load
// validation.
func BenchmarkFig4LinkLoads(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig4(experiments.Opts{MeasureCycles: 15000})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
	}
}

// BenchmarkTable1HopCounts regenerates Table 1 (hop analysis).
func BenchmarkTable1HopCounts(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
	}
}

// BenchmarkFig7Routing regenerates Figure 7 and reports the YX and XY-YX
// geomean speedups (paper: 1.393 and 1.647).
func BenchmarkFig7Routing(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
		b.ReportMetric(geomeanOf(b, tab, "YX"), "yx_geomean_speedup")
		b.ReportMetric(geomeanOf(b, tab, "XY-YX"), "xyyx_geomean_speedup")
	}
}

// BenchmarkFig8Monopolizing regenerates Figure 8 and reports the YX
// fully-monopolized geomean speedup (paper: 1.889).
func BenchmarkFig8Monopolizing(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
		b.ReportMetric(geomeanOf(b, tab, "YX (Monopolized)"), "yx_mono_geomean_speedup")
		b.ReportMetric(geomeanOf(b, tab, "XY-YX (Partially Monopolized)"), "xyyx_pm_geomean_speedup")
	}
}

// BenchmarkFig9Placements regenerates Figure 9 and reports the headline
// comparison: the proposed bottom+YX+FM against the diamond placement.
func BenchmarkFig9Placements(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
		b.ReportMetric(geomeanOf(b, tab, "Bottom (YX FM)"), "bottom_yx_fm_geomean")
		b.ReportMetric(geomeanOf(b, tab, "Diamond (XY)"), "diamond_xy_geomean")
	}
}

// BenchmarkFig10AsymmetricVC regenerates Figure 10 (1:3 vs 2:2 with 4 VCs).
func BenchmarkFig10AsymmetricVC(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
		b.ReportMetric(geomeanOf(b, tab, "VC Partitioned (1:3)"), "asymmetric_geomean_speedup")
	}
}

// BenchmarkNetworkDivision regenerates the Section 4.2 one-net-vs-two-nets
// comparison.
func BenchmarkNetworkDivision(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Benchmarks = []string{"RED", "KMN", "LPS"}
		tab, err := experiments.NetworkDivision(opts)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
	}
}

// --- Ablation benches (design choices beyond the paper's figures) ---

func runScheme(b *testing.B, cfg config.Config, bench string) gpu.Result {
	b.Helper()
	res, err := gpu.Run(context.Background(), cfg, bench, gpu.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if res.Deadlocked {
		b.Fatalf("deadlock in ablation config")
	}
	return res
}

func ablationCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 6000
	return cfg
}

// BenchmarkAblationVCDepth sweeps VC buffer depth on the baseline.
func BenchmarkAblationVCDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg()
				cfg.NoC.VCDepth = depth
				res := runScheme(b, cfg, "KMN")
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

// BenchmarkAblationVCCount sweeps VCs/port under the split policy.
func BenchmarkAblationVCCount(b *testing.B) {
	for _, vcs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("vcs=%d", vcs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg()
				cfg.NoC.VCsPerPort = vcs
				res := runScheme(b, cfg, "KMN")
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

// BenchmarkAblationDRAMScheduler compares FCFS with FR-FCFS (the paper's
// related work [15] argues in-order suffices; quantify it here).
func BenchmarkAblationDRAMScheduler(b *testing.B) {
	for _, fr := range []bool{false, true} {
		name := "fcfs"
		if fr {
			name = "frfcfs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg()
				cfg.Mem.UseFRFCFS = fr
				res := runScheme(b, cfg, "BFS") // DRAM-bound benchmark
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

// BenchmarkAblationRouterPipeline compares the 2-stage router against an
// aggressive single-cycle router and a slower 3-cycle one, via the
// synthetic harness.
func BenchmarkAblationRouterPipeline(b *testing.B) {
	for _, delay := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("stage1=%d", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := synthetic.DefaultParams()
				p.InjectionRate = 0.10
				p.PipelineDelay = delay
				h, err := synthetic.New(p)
				if err != nil {
					b.Fatal(err)
				}
				st, dead := h.Run(1000, 6000)
				if dead {
					b.Fatal("deadlock")
				}
				b.ReportMetric(st.NetLatency[packet.Reply].Mean(), "reply_latency_cycles")
			}
		})
	}
}

// BenchmarkAblationInjectionRateCurve sweeps synthetic injection rates per
// routing algorithm: the latency/throughput curves behind Figure 7.
func BenchmarkAblationInjectionRateCurve(b *testing.B) {
	for _, rt := range config.Routings() {
		for _, rate := range []float64{0.05, 0.15, 0.40} {
			b.Run(fmt.Sprintf("%s/rate=%.2f", rt, rate), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := synthetic.DefaultParams()
					p.NoC.Routing = rt
					p.InjectionRate = rate
					h, err := synthetic.New(p)
					if err != nil {
						b.Fatal(err)
					}
					st, dead := h.Run(1000, 6000)
					if dead {
						b.Fatal("deadlock")
					}
					b.ReportMetric(st.Throughput(), "flits_per_cycle")
					b.ReportMetric(st.NetLatency[packet.Reply].Mean(), "reply_latency_cycles")
				}
			})
		}
	}
}

// --- Microbenchmarks of the simulator's hot paths ---

// BenchmarkRouterStep measures raw network stepping speed under load.
func BenchmarkRouterStep(b *testing.B) {
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	r := rng.New(1)
	id := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			id++
			n.Inject(&packet.Packet{
				ID: id, Type: packet.ReadReply,
				Src: r.Intn(64), Dst: r.Intn(64),
				Flits: packet.LongFlits,
			})
		}
		n.Step()
	}
}

// BenchmarkGPUCycle measures full-system cycles per second, with the
// always-on flight recorder attached the way production sweeps run it —
// the number must hold with the ring recording.
func BenchmarkGPUCycle(b *testing.B) {
	cfg := config.Default()
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		b.Fatal(err)
	}
	sim.AttachFlight(4096, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkGPUCycleReference runs the same full-system cycle path under the
// naive scan-everything reference stepper. The ratio against
// BenchmarkGPUCycle is the measured win of the event-sparse active-set
// kernel (DESIGN.md §9); results are bit-identical (equivalence_test.go).
func BenchmarkGPUCycleReference(b *testing.B) {
	cfg := config.Default()
	cfg.NoC.ReferenceStepper = true
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkGPUCycleLarge measures full-system cycles per second on a 16×16
// mesh (240 SMs + 16 MCs — 4× the paper's system), the largest mesh the
// repository runs.
func BenchmarkGPUCycleLarge(b *testing.B) {
	cfg := config.Default()
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Mem.NumMCs = 16
	cfg.Core.NumSMs = 240
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		b.Fatal(err)
	}
	sim.AttachFlight(4096, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkGPUCycleFastForward measures the idle-cycle fast-forward payoff
// on a drain/warmup-heavy workload (long compute sleeps, no memory traffic,
// the idleProfile the equivalence tests certify): one full warmup+measure
// run per iteration, with -fastforward off vs on. Results are bit-identical
// (equivalence_test.go); the off/on ratio is the measured win.
func BenchmarkGPUCycleFastForward(b *testing.B) {
	for _, ff := range []bool{false, true} {
		name := "off"
		if ff {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := config.Default()
			cfg.WarmupCycles = 1000
			cfg.MeasureCycles = 10000
			cfg.FastForward = ff
			prof := idleProfile()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := gpu.New(cfg, prof)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
				if ff && sim.FastForwarded == 0 {
					b.Fatal("fast-forward never engaged on the idle profile")
				}
			}
		})
	}
}

// BenchmarkGPUCycleTelemetry measures the same full-system cycle path with
// the telemetry subsystem attached. Compared against BenchmarkGPUCycle it
// bounds the instrumented overhead; the disabled path (no telemetry)
// is BenchmarkGPUCycle itself, which now carries the nil probe checks.
func BenchmarkGPUCycleTelemetry(b *testing.B) {
	cfg := config.Default()
	sim, err := gpu.NewInstrumented(cfg, workload.MustGet("KMN"), gpu.Instrumentation{TelemetryEpoch: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkCacheAccess measures the L1 model's access path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(16<<10, 4, 128)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(r.Uint64n(1<<20)&^127, i%4 == 0)
	}
}

// BenchmarkDRAMTick measures the DRAM channel model.
func BenchmarkDRAMTick(b *testing.B) {
	d := dram.New(dram.DefaultParams())
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Enqueue(uint64(i), r.Uint64n(1<<24), int64(i))
		d.Tick(int64(i))
		d.Completed()
	}
}

// BenchmarkAnalyzer measures the core link-usage analysis (runs at every
// simulator construction).
func BenchmarkAnalyzer(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		if _, err := core.ValidateScheme(core.Baseline, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGen measures instruction stream generation.
func BenchmarkWorkloadGen(b *testing.B) {
	g := workload.NewGenerator(workload.MustGet("KMN"), 1, 0, 0, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkExtensionSweep regenerates the latency/throughput curve table.
func BenchmarkExtensionSweep(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Sweep(experiments.Opts{MeasureCycles: 4000})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
	}
}

// BenchmarkExtensionScaling regenerates the mesh-size scaling study.
func BenchmarkExtensionScaling(b *testing.B) {
	var printed bool
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Scaling(experiments.Opts{
			Benchmarks: []string{"KMN", "RED"}, WarmupCycles: 800, MeasureCycles: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, &printed, tab)
	}
}
