package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricDef names a metric the benchmark reports; the lists below are the
// ones BENCHMARK.json declares, in its order.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is reported with tracing off (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_kcycles_per_s", "kcycles/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_s_p50", "s", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer is reported by the traced run (--trace 1).
var perLayer = []metricDef{
	{"core.validate_ms", "ms", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"gpu.new_ms", "ms", "lower"},
	{"gpu.ff_cycle_frac", "fraction", "higher"},
	{"gpu.allocs_per_kcycle", "count", "lower"},
	{"gpu.alloc_kb_per_kcycle", "KiB", "lower"},
	{"gpu.gc_cpu_frac", "fraction", "lower"},
	{"noc.self_us_per_kcycle", "us", "lower"},
	{"noc.ns_per_flit_hop", "ns", "lower"},
	{"noc.flit_hops_per_cycle", "flits/cycle", "higher"},
	{"noc.reply_request_flit_ratio", "ratio", "lower"},
	{"noc.latency_req_mean_cycles", "cycles", "lower"},
	{"noc.latency_reply_mean_cycles", "cycles", "lower"},
	{"noc.inflight_flits_mean", "flits", "lower"},
	{"endpoint.self_us_per_kcycle", "us", "lower"},
	{"sink.us_per_kcycle", "us", "lower"},
	{"smcore.ipc", "instr/cycle", "higher"},
	{"smcore.stall_frac", "fraction", "lower"},
	{"cache.l1_miss_rate", "fraction", "lower"},
	{"cache.mshr_occupancy_mean", "entries", "lower"},
	{"mc.l2_miss_rate", "fraction", "lower"},
	{"mc.queue_len_mean", "requests", "lower"},
	{"dram.queue_len_mean", "requests", "lower"},
	{"dram.inflight_mean", "requests", "lower"},
	{"sweep.job_run_s_p50", "s", "lower"},
	{"sweep.busy_frac", "fraction", "higher"},
	{"fabric.lease_ms_p50", "ms", "lower"},
	{"fabric.complete_ms_p50", "ms", "lower"},
	{"fabric.heartbeat_count", "count", "lower"},
	{"fabric.empty_lease_count", "count", "lower"},
	{"fabric.idle_s", "s", "lower"},
	{"fabric.store_hits", "count", "lower"},
	{"trace.sim_kcycles_per_s", "kcycles/s", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// host stamps where a result was measured. Results whose GOMAXPROCS or
// NumCPU differ are not comparable.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// commit is set at build time (-ldflags -X main.commit=...).
var commit = "unknown"

func stampHost() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation measured. Metrics holds the
// declared metrics of the mode; Extra holds the supporting figures (sample
// counts, tail percentiles, failed_frac) that are printed but are not part
// of the declared set.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   int              `json:"seconds"`
	Host      host             `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra,omitempty"`
}

func (r *report) set(name string, v float64) {
	for _, d := range r.declared() {
		if d.Name == name {
			r.Metrics[name] = value{v, d.Unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *report) extra(name string, v float64, unit string) {
	if r.Extra == nil {
		r.Extra = map[string]value{}
	}
	r.Extra[name] = value{v, unit}
}

func (r *report) declared() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable listing — host stamp, every metric by
// name with its unit, the correctness verdict — and, as the last line, the
// result object: correct, attempted, failed and the declared metrics.
func (r *report) print(w io.Writer) error {
	h := r.Host
	fmt.Fprintf(w, "host gomaxprocs=%d numcpu=%d cpu=%q go=%s commit=%s\n", h.GOMAXPROCS, h.NumCPU, h.CPU, h.Go, h.Commit)
	fmt.Fprintf(w, "workload %s seed=%d trace=%t seconds=%d\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	for _, d := range r.declared() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
	for _, name := range sortedKeys(r.Extra) {
		v := r.Extra[name]
		fmt.Fprintf(w, "extra  %-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
