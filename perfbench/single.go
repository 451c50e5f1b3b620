package main

import (
	"context"
	"runtime"
	"time"

	"gpgpunoc/internal/sweep"
)

// runSingle measures a one-job workload: a closed loop of serial runs, each
// gpu.New then Simulator.RunContext, until the deadline (at least minIters
// runs). Untraced, every run is timed. Traced, runs alternate untraced and
// traced so that each traced result can be checked byte for byte against
// an untraced one and the tracing overhead read off the pair; then the job
// goes once through a fresh fabric, which must return the same result.
// That pass exists because traced output carries every per-layer metric on
// every workload and a time there must be measured, not a constant 0: the
// sweep.* and fabric.* figures of a single-run workload are the cost of
// its one job through a default fabric, not of the workload itself.
func runSingle(ctx context.Context, o options, w workload, jobs []sweep.Job, chk *checker, r *report) error {
	j := jobs[0]
	var (
		setup, jobS      []float64
		heapPeaks        []float64
		kcps, tracedKCPS []float64
		cycles, ffCycles int64
		layers           layerTimes
		sims             simTotals
		log              *spanLog
	)
	if o.trace {
		log = newSpanLog()
		timeSetupLayers(jobs, r)
	}
	runtime.GC() // set-up garbage counts neither toward the heap peak nor the runtime deltas
	heap := watchHeap()
	before := snapRuntime()
	loopStart := time.Now()
	closedLoop(o, func(i int) error {
		traced := o.trace && i%2 == 1
		heap.take() // the interval starts with this job
		start := time.Now()
		res, lt, newDur, err := simulate(ctx, j, traced)
		end := time.Now()
		if err != nil {
			chk.noResult(0, j.Key, err)
			return nil
		}
		chk.run(0, recordOf(j, res), res)
		run := end.Sub(start) - newDur
		total := res.GPU.Cycles + int64(j.Cfg.WarmupCycles)
		rate := float64(total) / 1e3 / run.Seconds()
		if traced {
			tracedKCPS = append(tracedKCPS, rate)
			layers.add(lt)
			sims.add(res, j.Cfg.Core.NumSMs)
			id := log.add("run", i, 0, start, end)
			log.add("gpu.New", i, id, start, start.Add(newDur))
			log.add("gpu.RunContext", i, id, start.Add(newDur), end)
			log.addLayers(i, id, start.Add(newDur), end, lt)
			return nil
		}
		setup = append(setup, newDur.Seconds())
		jobS = append(jobS, end.Sub(start).Seconds())
		kcps = append(kcps, rate)
		heapPeaks = append(heapPeaks, heap.take())
		cycles += total
		ffCycles += res.FastForwarded
		return nil
	})
	loopWall := time.Since(loopStart)
	after := snapRuntime()
	heap.close()

	if !o.trace {
		r.set("setup_s", median(setup))
		r.set("sim_kcycles_per_s", median(kcps))
		// Throughput of the whole loop, gaps between runs included: the
		// same definition as the grid's, not the inverse of job_s_p50.
		r.set("jobs_per_s", float64(len(jobS))/loopWall.Seconds())
		r.set("job_s_p50", median(jobS))
		r.set("peak_heap_mb", median(heapPeaks))
		jobTail(r, jobS)
		return nil
	}
	r.set("gpu.new_ms", median(setup)*1e3)
	r.set("gpu.ff_cycle_frac", float64(ffCycles)/float64(cycles))
	// The runtime deltas span the untraced and the traced runs alike; the
	// probes allocate nothing, so both count toward the same kcycles.
	allCycles := float64(cycles + layers.cycles)
	setRuntime(r, deltaRuntime(before, after), allCycles)
	setLayers(r, &layers, &sims)
	setTraceOverhead(r, median(kcps), median(tracedKCPS))
	g, err := runGridRound(ctx, o, w.spec(o.seed), jobs, true, len(kcps)+len(tracedKCPS), log, chk)
	if err != nil {
		return err
	}
	setFabricLayers(r, []*gridRound{g}, []*gridRound{g})
	o.writeSpans(log, r)
	return nil
}
