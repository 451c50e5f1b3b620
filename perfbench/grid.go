package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"gpgpunoc/internal/fabric"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

// gridSlots is the number of in-process workers, each with one job slot.
const gridSlots = 2

// fabricSetupReps is how many extra fabric set-ups (no jobs) an untraced
// grid run times before each round. A set-up takes about a millisecond, so
// setup_s is the median of many, spread over the whole run like the
// rounds rather than bunched at its start.
const fabricSetupReps = 25

// fabricProbe is a worker's HTTP transport. It signals the worker's first
// /lease (the worker is registered and ready), tells the round when a
// /complete has been filed, and, when traced, times every round trip.
type fabricProbe struct {
	base       http.RoundTripper
	ready      chan struct{}
	readyOnce  sync.Once
	onComplete func()
	traced     bool
	log        *spanLog
	run        int

	mu          sync.Mutex
	leaseMS     []float64
	completeMS  []float64
	heartbeats  int
	emptyLeases int
}

func (p *fabricProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if path == "/lease" {
		p.readyOnce.Do(func() { close(p.ready) })
	}
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if p.traced {
		empty := false
		if path == "/lease" {
			// Read the lease here so its time includes the body and an
			// empty one can be counted; the worker decodes the copy.
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				return nil, rerr
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			var lr fabric.LeaseResponse
			empty = json.Unmarshal(body, &lr) == nil && len(lr.Jobs) == 0
		}
		end := time.Now()
		ms := float64(end.Sub(start)) / float64(time.Millisecond)
		p.mu.Lock()
		switch path {
		case "/lease":
			p.leaseMS = append(p.leaseMS, ms)
			if empty {
				p.emptyLeases++
			}
		case "/complete":
			p.completeMS = append(p.completeMS, ms)
		case "/heartbeat":
			p.heartbeats++
		}
		p.mu.Unlock()
		p.log.add("fabric"+path, p.run, 0, start, end)
	}
	if path == "/complete" && resp.StatusCode == http.StatusOK {
		// The coordinator answers only after filing the records.
		p.onComplete()
	}
	return resp, nil
}

// gridRound is what one round measured.
type gridRound struct {
	setup   time.Duration // store + coordinator + workers ready to lease
	wall    time.Duration // Submit to last record
	jobS    []float64     // per job, Submit to record available
	cycles  int64         // simulated cycles of the completed jobs
	ff      int64
	busy    time.Duration // summed RunFunc time
	runS    []float64
	newMS   []float64
	cached  int
	heapMB  float64 // peak live heap during the round
	probes  []*fabricProbe
	layers  layerTimes
	results []gpu.Result // traced jobs' results, for the simulated layer metrics
}

// fabricRun is one in-process fabric: a fresh store, a coordinator served
// over loopback HTTP, and gridSlots workers with one job slot each.
type fabricRun struct {
	co     *fabric.Coordinator
	srv    *fabric.Server
	dir    string
	base   *http.Transport
	probes []*fabricProbe
	notify chan struct{} // a /complete was filed
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startFabric brings a fabric up and returns once every worker is ready to
// lease. runFn is the workers' job executor (nil: sweep.Simulate).
func startFabric(ctx context.Context, o options, runFn sweep.RunFunc, traced bool, run int, log *spanLog) (f *fabricRun, err error) {
	f = &fabricRun{notify: make(chan struct{}, 1)}
	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	if f.dir, err = os.MkdirTemp(o.work, "store-"); err != nil {
		return f, err
	}
	store, err := fabric.OpenStore(f.dir)
	if err != nil {
		return f, err
	}
	// The library's defaults throughout, lease size, TTL, heartbeat,
	// idle wait and worker poll: what a fabric is unless told otherwise.
	f.co = fabric.NewCoordinator(store, fabric.Options{})
	if f.srv, err = fabric.NewServer("127.0.0.1:0", f.co); err != nil {
		return f, err
	}
	f.base = &http.Transport{}
	for i := 0; i < gridSlots; i++ {
		p := &fabricProbe{
			base: f.base, ready: make(chan struct{}), traced: traced, log: log, run: run,
			onComplete: func() {
				select {
				case f.notify <- struct{}{}:
				default:
				}
			},
		}
		f.probes = append(f.probes, p)
		w := fabric.NewWorker("http://"+f.srv.Addr(), fabric.WorkerOptions{
			Name:   fmt.Sprintf("w%d", i),
			Run:    runFn,
			Jobs:   1,
			Client: &http.Client{Transport: p, Timeout: 30 * time.Second},
		})
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(wctx) // ends with wctx's error when the fabric stops
		}()
	}
	for _, p := range f.probes {
		select {
		case <-p.ready:
		case <-time.After(10 * time.Second):
			return f, fmt.Errorf("grid: worker not ready after 10s")
		}
	}
	return f, nil
}

// stop shuts the workers down, waits for them, and removes the store.
func (f *fabricRun) stop() {
	f.cancel()
	f.wg.Wait()
	if f.base != nil {
		f.base.CloseIdleConnections()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// timeFabricSetup brings a fabric up and down n times and returns the
// set-up times, so that setup_s rests on more samples than there are rounds.
func timeFabricSetup(ctx context.Context, o options, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		f, err := startFabric(ctx, o, nil, false, 0, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
		f.stop()
	}
	return out, nil
}

// runGridRound submits the workload's spec to a fresh fabric and waits for
// every record.
func runGridRound(ctx context.Context, o options, spec sweep.Spec, jobs []sweep.Job, traced bool, run int, log *spanLog, chk *checker) (*gridRound, error) {
	g := &gridRound{}
	var (
		mu      sync.Mutex
		results = map[string]gpu.Result{}
	)
	runFn := func(ctx context.Context, j sweep.Job) (gpu.Result, error) {
		start := time.Now()
		var (
			res    gpu.Result
			lt     *layerTimes
			newDur time.Duration
			err    error
		)
		if traced {
			res, lt, newDur, err = simulate(ctx, j, true)
		} else {
			res, err = simulateDefault(ctx, j)
		}
		end := time.Now()
		mu.Lock()
		g.busy += end.Sub(start)
		g.runS = append(g.runS, end.Sub(start).Seconds())
		if err == nil {
			results[j.Fingerprint()] = res
			if traced {
				g.newMS = append(g.newMS, ms(newDur))
				g.layers.add(lt)
			}
		}
		mu.Unlock()
		if traced && err == nil {
			id := log.add("sweep.RunFunc", run, 0, start, end)
			log.add("gpu.New", run, id, start, start.Add(newDur))
			log.addLayers(run, id, start.Add(newDur), end, lt)
		}
		return res, err
	}

	t0 := time.Now()
	f, err := startFabric(ctx, o, runFn, traced, run, log)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	g.probes = f.probes
	submit := time.Now()
	g.setup = submit.Sub(t0)

	resp, err := f.co.Submit(spec)
	if err != nil {
		return nil, err
	}
	// The store is fresh, so a cached answer means the fabric served a
	// result nobody computed.
	if g.cached = resp.Cached; g.cached != 0 {
		chk.fail(fmt.Sprintf("grid round %d: %d store hits on a fresh store", run, g.cached))
	}
	if resp.Total != len(jobs) {
		return nil, fmt.Errorf("grid: coordinator expanded %d jobs, want %d", resp.Total, len(jobs))
	}
	filed := map[string]time.Time{}
	var recs []sweep.Record
	for len(filed) < len(jobs) {
		select {
		case <-f.notify:
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		now := time.Now()
		if now.Sub(submit) > 150*time.Second {
			return nil, fmt.Errorf("grid: %d of %d records after 150s", len(filed), len(jobs))
		}
		if recs, _, err = f.co.Results(resp.SweepID); err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if _, ok := filed[rec.Fingerprint]; !ok {
				filed[rec.Fingerprint] = now
			}
		}
	}
	last := submit
	for _, at := range filed {
		if at.After(last) {
			last = at
		}
	}
	roundID := log.add("round", run, 0, t0, last)
	log.add("setup", run, roundID, t0, submit)
	for i, rec := range recs {
		at := filed[rec.Fingerprint]
		g.jobS = append(g.jobS, at.Sub(submit).Seconds())
		log.add("job", run, roundID, submit, at)
		mu.Lock()
		res, ok := results[rec.Fingerprint]
		mu.Unlock()
		if !ok && rec.Status == sweep.StatusOK {
			chk.noResult(i, rec.Key, fmt.Errorf("record filed without a run in this round"))
			continue
		}
		chk.run(i, rec, res)
		if rec.Status == sweep.StatusOK {
			g.cycles += int64(jobs[i].Cfg.WarmupCycles) + res.GPU.Cycles
			g.ff += res.FastForwarded
			if traced {
				g.results = append(g.results, res)
			}
		}
	}
	g.wall = last.Sub(submit)
	return g, nil
}

// runGrid measures the grid workload: rounds until the deadline (at least
// minIters). Traced, rounds alternate untraced and traced.
func runGrid(ctx context.Context, o options, w workload, jobs []sweep.Job, chk *checker, r *report) error {
	spec := w.spec(o.seed)
	var log *spanLog
	if o.trace {
		log = newSpanLog()
		timeSetupLayers(jobs, r)
	}
	var setup []float64
	var plain, tracedRounds []*gridRound
	runtime.GC() // set-up garbage counts neither toward the heap peak nor the runtime deltas
	heap := watchHeap()
	before := snapRuntime()
	err := closedLoop(o, func(i int) error {
		traced := o.trace && i%2 == 1
		if !o.trace {
			s, err := timeFabricSetup(ctx, o, fabricSetupReps)
			if err != nil {
				return err
			}
			setup = append(setup, s...)
		}
		heap.take() // the interval starts with this round
		g, err := runGridRound(ctx, o, spec, jobs, traced, i, log, chk)
		if err != nil {
			return err
		}
		g.heapMB = heap.take()
		if traced {
			tracedRounds = append(tracedRounds, g)
		} else {
			plain = append(plain, g)
		}
		return nil
	})
	after := snapRuntime()
	heap.close()
	if err != nil {
		return err
	}

	var jps, kcps, tracedKCPS, jobS, heapPeaks []float64
	var cycles, ff int64
	for _, g := range plain {
		setup = append(setup, g.setup.Seconds())
		jps = append(jps, float64(len(g.jobS))/g.wall.Seconds())
		kcps = append(kcps, float64(g.cycles)/1e3/g.wall.Seconds())
		jobS = append(jobS, g.jobS...)
		heapPeaks = append(heapPeaks, g.heapMB)
		cycles += g.cycles
		ff += g.ff
	}
	if !o.trace {
		r.set("setup_s", median(setup))
		r.set("sim_kcycles_per_s", median(kcps))
		r.set("jobs_per_s", median(jps))
		r.set("job_s_p50", median(jobS))
		r.set("peak_heap_mb", median(heapPeaks))
		jobTail(r, jobS)
		r.extra("gomaxprocs", float64(r.Host.GOMAXPROCS), "count")
		r.extra("numcpu", float64(r.Host.NumCPU), "count")
		return nil
	}

	var (
		layers layerTimes
		sims   simTotals
		newMS  []float64
	)
	for _, g := range tracedRounds {
		tracedKCPS = append(tracedKCPS, float64(g.cycles)/1e3/g.wall.Seconds())
		layers.add(&g.layers)
		for _, res := range g.results {
			sims.add(res, jobs[0].Cfg.Core.NumSMs)
		}
		cycles += g.cycles
		ff += g.ff
		newMS = append(newMS, g.newMS...)
	}
	r.set("gpu.new_ms", median(newMS))
	r.set("gpu.ff_cycle_frac", float64(ff)/float64(cycles))
	setRuntime(r, deltaRuntime(before, after), float64(cycles))
	setLayers(r, &layers, &sims)
	setTraceOverhead(r, median(kcps), median(tracedKCPS))
	setFabricLayers(r, tracedRounds, append(plain, tracedRounds...))
	o.writeSpans(log, r)
	return nil
}

// setFabricLayers reports the sweep and fabric layers of the traced rounds;
// store hits are summed over every round.
func setFabricLayers(r *report, traced, all []*gridRound) {
	var runS, busy, idle, leaseMS, completeMS, heartbeats, empties, hits []float64
	for _, g := range traced {
		runS = append(runS, g.runS...)
		slotTime := gridSlots * g.wall.Seconds()
		busy = append(busy, g.busy.Seconds()/slotTime)
		idle = append(idle, slotTime-g.busy.Seconds())
		var hb, empty int
		for _, p := range g.probes {
			leaseMS = append(leaseMS, p.leaseMS...)
			completeMS = append(completeMS, p.completeMS...)
			hb += p.heartbeats
			empty += p.emptyLeases
		}
		heartbeats = append(heartbeats, float64(hb))
		empties = append(empties, float64(empty))
	}
	for _, g := range all {
		hits = append(hits, float64(g.cached))
	}
	r.set("sweep.job_run_s_p50", median(runS))
	r.set("sweep.busy_frac", median(busy))
	r.set("fabric.lease_ms_p50", median(leaseMS))
	r.set("fabric.complete_ms_p50", median(completeMS))
	r.set("fabric.heartbeat_count", median(heartbeats))
	r.set("fabric.empty_lease_count", median(empties))
	r.set("fabric.idle_s", median(idle))
	r.set("fabric.store_hits", sum(hits))
}
