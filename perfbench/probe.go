package main

import (
	"context"
	"time"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/sweep"
	profiles "gpgpunoc/internal/workload"
)

// sampleEvery is the cycle-boundary sampling period for the occupancy means.
const sampleEvery = 16

// flightEvents is the flight-recorder ring every measured simulation
// carries: the size cmd/sweep attaches by default, in memory only.
const flightEvents = 4096

// simulateDefault is the grid workers' untraced job executor: the sweep
// engine's simulation with the recorder attached, as cmd/sweep runs it.
var simulateDefault = sweep.SimulateOpts(gpu.RunOptions{FlightRecorder: flightEvents})

// layerTimes is the host time and the cycle-boundary samples one or more
// traced runs collected, timed from outside the program: a decorator around
// the simulator's Interconnect and timing wrappers around every ejection sink.
type layerTimes struct {
	cycles     int64         // simulated cycles (stepped + fast-forwarded)
	nocTotal   time.Duration // inside Interconnect.Step, sinks included
	sink       time.Duration // inside the smcore/mc ejection sinks
	sinkCalls  int64
	endpoint   time.Duration // between consecutive Interconnect.Step calls
	nocMeasure time.Duration // NoC self time during the measurement phase

	// Cycle-boundary samples: per-entity sums and how many entity
	// readings they hold.
	samples, smSamples, mcSamples      int64
	mshr, mcQueue, dramQueue, dramBusy int64
	inflight                           int64
}

func (t *layerTimes) add(o *layerTimes) {
	t.cycles += o.cycles
	t.nocTotal += o.nocTotal
	t.sink += o.sink
	t.sinkCalls += o.sinkCalls
	t.endpoint += o.endpoint
	t.nocMeasure += o.nocMeasure
	t.samples += o.samples
	t.smSamples += o.smSamples
	t.mcSamples += o.mcSamples
	t.mshr += o.mshr
	t.mcQueue += o.mcQueue
	t.dramQueue += o.dramQueue
	t.dramBusy += o.dramBusy
	t.inflight += o.inflight
}

// nocSelf is NoC time with the sink time it encloses taken out.
func (t *layerTimes) nocSelf() time.Duration { return t.nocTotal - t.sink }

// tracedNet wraps a simulator's interconnect. Step is timed; the gap
// between the end of one Step and the start of the next is the endpoint
// layer (SM.Tick, MC.Tick and the run loop). Sink wrappers add their time
// to sink, which Step's total encloses.
type tracedNet struct {
	noc.Interconnect
	sim *gpu.Simulator
	t   layerTimes

	measuring bool
	lastEnd   time.Time
}

// traceSim installs the decorator and the sink wrappers on a freshly built
// simulator, before its first cycle.
func traceSim(sim *gpu.Simulator) *tracedNet {
	inner := sim.Net
	tn := &tracedNet{Interconnect: inner, sim: sim}
	for _, sm := range sim.SMs {
		inner.SetSink(sm.Node, tn.timed(sm.Sink()))
	}
	for _, m := range sim.MCs {
		inner.SetSink(m.Node, tn.timed(m.Sink(inner.Cycle)))
	}
	sim.Net = tn
	return tn
}

func (n *tracedNet) timed(s noc.Sink) noc.Sink {
	return func(f packet.Flit) bool {
		start := time.Now()
		ok := s(f)
		n.t.sink += time.Since(start)
		n.t.sinkCalls++
		return ok
	}
}

func (n *tracedNet) EnableStats(on bool) {
	n.measuring = on
	n.Interconnect.EnableStats(on)
}

func (n *tracedNet) FastForward(delta int64) {
	n.Interconnect.FastForward(delta)
	n.t.cycles += delta
}

func (n *tracedNet) Step() {
	start := time.Now()
	if !n.lastEnd.IsZero() {
		n.t.endpoint += start.Sub(n.lastEnd)
	}
	sinkBefore := n.t.sink
	n.Interconnect.Step()
	end := time.Now()
	step := end.Sub(start)
	n.t.nocTotal += step
	n.t.cycles++
	if n.measuring {
		n.t.nocMeasure += step - (n.t.sink - sinkBefore)
		if n.t.cycles%sampleEvery == 0 {
			n.sample()
			// Sampling is the probe's own cost: keep it out of the
			// endpoint gap that starts here.
			end = time.Now()
		}
	}
	n.lastEnd = end
}

// sample reads the occupancy gauges at a cycle boundary: the MCs and SMs
// have ticked and the fabric has stepped; nothing moves until the next
// SM.Tick.
func (n *tracedNet) sample() {
	n.t.samples++
	n.t.smSamples += int64(len(n.sim.SMs))
	n.t.mcSamples += int64(len(n.sim.MCs))
	for _, sm := range n.sim.SMs {
		n.t.mshr += int64(sm.MSHR().Occupancy())
	}
	for _, m := range n.sim.MCs {
		n.t.mcQueue += int64(m.QueueLen())
		n.t.dramQueue += int64(m.DRAM().QueueLen())
		n.t.dramBusy += int64(m.DRAM().InFlight())
	}
	n.t.inflight += int64(n.Interconnect.FlitsInFlight())
}

// simulate runs job j through the public entry points, gpu.New then
// Simulator.RunContext, with the flight recorder attached as gpu.Run
// attaches it for cmd/sweep, and returns the result with the gpu.New
// duration. With traced set it installs the layer probes first and returns
// their times; otherwise the layer times are nil.
func simulate(ctx context.Context, j sweep.Job, traced bool) (gpu.Result, *layerTimes, time.Duration, error) {
	prof, err := profiles.Get(j.Benchmark)
	if err != nil {
		return gpu.Result{}, nil, 0, err
	}
	start := time.Now()
	sim, err := gpu.New(j.Cfg, prof)
	if err != nil {
		return gpu.Result{}, nil, 0, err
	}
	newDur := time.Since(start)
	defer sim.Close()
	sim.AttachFlight(flightEvents, "")
	var lt *layerTimes
	if traced {
		lt = &traceSim(sim).t
	}
	res, err := sim.RunContext(ctx)
	return res, lt, newDur, err
}
