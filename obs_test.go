// Observability-equivalence suite: span tracing and live exposition must be
// pure observers. Attaching spans at rate 0 must leave every simulation
// result bit-identical to a run without spans; at rate 1 the per-packet
// span decomposition must agree exactly with the telemetry latency
// histograms, which compute the same four segments from packet timestamps
// through a completely different path; and the HTTP endpoints must serve
// consistent snapshots while the simulation is running (exercised under
// `go test -race`).
package gpgpunoc_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/workload"
)

func obsCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 1600
	return cfg
}

func newSim(t *testing.T, cfg config.Config, bench string, inst gpu.Instrumentation) *gpu.Simulator {
	t.Helper()
	prof, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpu.NewInstrumented(cfg, prof, inst)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSpanRateZeroMatchesDisabled pins the zero-overhead-when-off contract
// on a Figure 9 scheme: a run with the span collector attached at rate 0
// must be bit-identical — IPC, GPU counters, and the full network stats
// including floating-point latency accumulators — to a run without it.
func TestSpanRateZeroMatchesDisabled(t *testing.T) {
	cfg := obsCfg()
	cfg.Placement = config.PlacementBottom
	cfg.NoC.Routing = config.RoutingYX

	plain := newSim(t, cfg, "KMN", gpu.Instrumentation{})
	resPlain := plain.Run()

	traced := newSim(t, cfg, "KMN", gpu.Instrumentation{Spans: true})
	resTraced := traced.Run()

	if resPlain.IPC != resTraced.IPC {
		t.Errorf("IPC diverged: %v vs %v", resPlain.IPC, resTraced.IPC)
	}
	if resPlain.GPU != resTraced.GPU {
		t.Errorf("GPU counters diverged:\n%+v\n%+v", resPlain.GPU, resTraced.GPU)
	}
	if !reflect.DeepEqual(resPlain.Net, resTraced.Net) {
		t.Error("network stats diverged between rate-0 and disabled runs")
	}
	if resTraced.Spans.NumTraces() != 0 {
		t.Errorf("rate 0 traced %d packets", resTraced.Spans.NumTraces())
	}
}

// TestSpanSegmentsMatchTelemetry cross-checks the two latency paths at
// sample rate 1: the telemetry histograms decompose each transaction from
// timestamps the packets carry, while the span transactions recompute the
// same four segments from recorded event cycles. Count and sum must agree
// exactly, per transaction kind and segment.
func TestSpanSegmentsMatchTelemetry(t *testing.T) {
	sim := newSim(t, obsCfg(), "KMN", gpu.Instrumentation{TelemetryEpoch: 400, Spans: true, SpanRate: 1})
	tel := sim.Tel
	res := sim.Run()

	type agg struct {
		count int64
		sum   [4]int64
	}
	byKind := map[string]*agg{"read": {}, "write": {}}
	complete := 0
	for _, x := range res.Spans.Transactions() {
		if !x.Complete {
			continue
		}
		complete++
		kind := "write"
		if x.Read {
			kind = "read"
		}
		a := byKind[kind]
		a.count++
		for i, s := range x.Segments {
			a.sum[i] += s
		}
	}
	if complete == 0 {
		t.Fatal("no complete transactions at rate 1; the run produced no traffic")
	}

	for kind, a := range byKind {
		for seg := telemetry.Segment(0); seg < telemetry.NumSegments; seg++ {
			h := tel.Reg.FindHistogram(fmt.Sprintf("latency.%s.%s", kind, seg))
			if h == nil {
				t.Fatalf("no histogram latency.%s.%s", kind, seg)
			}
			if h.Count() != a.count {
				t.Errorf("latency.%s.%s: telemetry count %d, spans %d", kind, seg, h.Count(), a.count)
			}
			if h.Sum() != a.sum[seg] {
				t.Errorf("latency.%s.%s: telemetry sum %d, spans %d", kind, seg, h.Sum(), a.sum[seg])
			}
		}
	}
}

// TestObsEndpointsMidRun polls /metrics, /state and /progress from a
// separate goroutine while the simulation runs. Under -race this proves the
// publish/serve split is sound, and every /state snapshot must pass the
// flit-conservation check — a torn read of the kernel would fail it.
func TestObsEndpointsMidRun(t *testing.T) {
	cfg := obsCfg()
	cfg.MeasureCycles = 20000 // long enough that polls land mid-run
	srv, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sim := newSim(t, cfg, "KMN", gpu.Instrumentation{Obs: srv, PublishEvery: 200})
	base := "http://" + srv.Addr()

	done := make(chan gpu.Result, 1)
	go func() { done <- sim.Run() }()

	fetch := func(ep string) (int, []byte) {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Errorf("GET %s: %v", ep, err)
			return 0, nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	polls, stateChecks := 0, 0
	var sawMidRun bool
	for {
		select {
		case res := <-done:
			if polls == 0 {
				t.Fatal("simulation finished before a single poll")
			}
			if !sawMidRun {
				t.Log("warning: no poll observed a mid-run snapshot; machine too fast for this run length")
			}
			if res.Deadlocked {
				t.Fatal("run deadlocked")
			}
			// After the final publish the endpoints still serve the
			// completed run.
			if code, body := fetch("/progress"); code != http.StatusOK || !strings.Contains(string(body), `"phase":"done"`) {
				t.Fatalf("final /progress = %d %s", code, body)
			}
			if stateChecks == 0 {
				t.Fatal("no /state snapshot was conservation-checked")
			}
			return
		default:
		}
		polls++
		if code, body := fetch("/metrics"); code != http.StatusOK || !strings.Contains(string(body), "noc_") {
			t.Fatalf("/metrics = %d %q...", code, truncate(body, 80))
		}
		code, body := fetch("/state")
		if code != http.StatusOK {
			t.Fatalf("/state = %d", code)
		}
		var st obs.MeshState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("/state is not a MeshState: %v", err)
		}
		if err := st.CheckConservation(); err != nil {
			t.Fatalf("mid-run /state snapshot inconsistent: %v", err)
		}
		stateChecks++
		if st.Cycle > 0 && st.Cycle < int64(cfg.WarmupCycles+cfg.MeasureCycles) {
			sawMidRun = true
		}
		if code, body := fetch("/progress"); code != http.StatusOK || !strings.Contains(string(body), `"cycle"`) {
			t.Fatalf("/progress = %d %q...", code, truncate(body, 80))
		}
		time.Sleep(time.Millisecond)
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
