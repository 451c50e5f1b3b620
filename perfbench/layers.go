package main

import (
	"sort"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/sweep"
)

// setupReps is how often each distinct configuration's validation and
// analysis are timed.
const setupReps = 5

// timeSetupLayers times the configuration layer from outside: config.Validate
// (structural checks plus the CDG prover hook) and core.Analyze +
// core.BuildAssigner, for each distinct configuration among jobs.
func timeSetupLayers(jobs []sweep.Job, r *report) {
	seen := map[config.Config]bool{}
	var validate, analyze []float64
	for _, j := range jobs {
		cfg := j.Cfg
		cfg.Seed = 0
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
		pl, err := placement.New(cfg.Placement, m, cfg.Mem.NumMCs)
		if err != nil {
			panic("perfbench: placement of a validated job: " + err.Error())
		}
		alg, err := routing.New(cfg.NoC.Routing)
		if err != nil {
			panic("perfbench: routing of a validated job: " + err.Error())
		}
		for i := 0; i < setupReps; i++ {
			start := time.Now()
			_ = cfg.Validate() // every job already passed Expand's validation
			mid := time.Now()
			if _, err := core.BuildAssigner(core.Analyze(m, pl, alg), cfg.NoC); err != nil {
				panic("perfbench: assigner of a validated job: " + err.Error())
			}
			end := time.Now()
			validate = append(validate, ms(mid.Sub(start)))
			analyze = append(analyze, ms(end.Sub(mid)))
		}
	}
	r.set("core.validate_ms", median(validate))
	r.set("core.analyze_ms", median(analyze))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simTotals sums the simulated statistics of traced runs (measurement
// phase only), so that the ratios below weigh every job by its cycles.
type simTotals struct {
	cycles, smCycles                 int64
	instr, stall                     int64
	l1Hits, l1Misses, l2Hits, l2Miss int64
	linkFlits                        int64
	classFlits, latSum, latCount     [packet.NumClasses]int64
}

func (s *simTotals) add(res gpu.Result, numSMs int) {
	g := res.GPU
	s.cycles += g.Cycles
	s.smCycles += g.Cycles * int64(numSMs)
	s.instr += g.Instructions
	s.stall += g.StallCycles
	s.l1Hits += g.L1Hits
	s.l1Misses += g.L1Misses
	s.l2Hits += g.L2Hits
	s.l2Miss += g.L2Misses
	for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
		for _, n := range res.Net.LinkFlits[cls] {
			s.linkFlits += n
		}
		s.classFlits[cls] += res.Net.ClassFlits(cls)
		s.latSum[cls] += res.Net.NetLatency[cls].Sum
		s.latCount[cls] += res.Net.NetLatency[cls].Count
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayers reports the NoC, endpoint and sink host times of the traced
// runs, their simulated statistics, and the cycle-boundary means.
func setLayers(r *report, t *layerTimes, s *simTotals) {
	kcycles := float64(t.cycles) / 1e3
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.set("noc.self_us_per_kcycle", ratio(us(t.nocSelf()), kcycles))
	r.set("noc.ns_per_flit_hop", ratio(float64(t.nocMeasure), float64(s.linkFlits)))
	r.set("endpoint.self_us_per_kcycle", ratio(us(t.endpoint), kcycles))
	r.set("sink.us_per_kcycle", ratio(us(t.sink), kcycles))

	r.set("noc.flit_hops_per_cycle", ratio(float64(s.linkFlits), float64(s.cycles)))
	r.set("noc.reply_request_flit_ratio", ratio(float64(s.classFlits[packet.Reply]), float64(s.classFlits[packet.Request])))
	r.set("noc.latency_req_mean_cycles", ratio(float64(s.latSum[packet.Request]), float64(s.latCount[packet.Request])))
	r.set("noc.latency_reply_mean_cycles", ratio(float64(s.latSum[packet.Reply]), float64(s.latCount[packet.Reply])))
	r.set("noc.inflight_flits_mean", ratio(float64(t.inflight), float64(t.samples)))

	r.set("smcore.ipc", ratio(float64(s.instr), float64(s.cycles)))
	r.set("smcore.stall_frac", ratio(float64(s.stall), float64(s.smCycles)))
	r.set("cache.l1_miss_rate", ratio(float64(s.l1Misses), float64(s.l1Hits+s.l1Misses)))
	r.set("cache.mshr_occupancy_mean", ratio(float64(t.mshr), float64(t.smSamples)))
	r.set("mc.l2_miss_rate", ratio(float64(s.l2Miss), float64(s.l2Hits+s.l2Miss)))
	r.set("mc.queue_len_mean", ratio(float64(t.mcQueue), float64(t.mcSamples)))
	r.set("dram.queue_len_mean", ratio(float64(t.dramQueue), float64(t.mcSamples)))
	r.set("dram.inflight_mean", ratio(float64(t.dramBusy), float64(t.mcSamples)))
}

// setRuntime reports the allocation and GC cost per simulated kilocycle.
func setRuntime(r *report, d runtimeDelta, cycles float64) {
	kcycles := cycles / 1e3
	r.set("gpu.allocs_per_kcycle", ratio(d.mallocs, kcycles))
	r.set("gpu.alloc_kb_per_kcycle", ratio(d.allocBytes/1024, kcycles))
	r.set("gpu.gc_cpu_frac", d.gcCPUFrac)
}

// setTraceOverhead reports the traced simulation rate and the share of the
// untraced rate the probes cost.
func setTraceOverhead(r *report, untraced, traced float64) {
	r.set("trace.sim_kcycles_per_s", traced)
	r.set("trace.overhead_frac", 1-ratio(traced, untraced))
	r.extra("trace.untraced_kcycles_per_s", untraced, "kcycles/s")
}

// jobTail reports the job-time sample count and the highest percentile
// with at least ten samples beyond it.
func jobTail(r *report, jobS []float64) {
	r.extra("job_s_p50.samples", float64(len(jobS)), "count")
	if name, v, ok := tailQuantile(jobS); ok {
		r.extra("job_s_"+name, v, "s")
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
