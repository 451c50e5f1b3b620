package obs

import (
	"strings"
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/telemetry"
)

func TestRenderPrometheusStructuredFamilies(t *testing.T) {
	m := mesh.New(8, 8)
	reg := telemetry.NewRegistry()
	reg.Counter("link.N0->N1.request.flits").Add(42)
	reg.Gauge("link.N0->N1.vc0.occupancy").Set(3)
	reg.Counter("node.9.injected.flits").Add(7)
	reg.Gauge("node.9.injq.flits").Set(2)
	reg.Counter("net.stall.credit").Add(5)
	reg.Gauge("mc.3.queue_depth").Set(11)
	reg.Gauge("mc.3.dram.row_hits").Set(6)
	reg.GaugeFunc("core.instructions", func() int64 { return 1000 })
	reg.Counter("some.unknown.probe").Add(1)
	reg.Histogram("latency.read.reqnet", telemetry.ExpBounds(8, 2, 3)).Observe(20)

	out := string(RenderPrometheus(reg, m))
	for _, want := range []string{
		// Mesh coordinates: node 1 is row 0 col 1, node 9 is row 1 col 1.
		`noc_link_flits_total{from="0",from_row="0",from_col="0",to="1",to_row="0",to_col="1",class="request"} 42`,
		`noc_link_vc_occupancy_flits{from="0",from_row="0",from_col="0",to="1",to_row="0",to_col="1",vc="0"} 3`,
		`noc_node_injected_flits_total{node="9",node_row="1",node_col="1"} 7`,
		`noc_node_injq_flits{node="9",node_row="1",node_col="1"} 2`,
		`noc_stall_cycles_total{cause="credit"} 5`,
		`noc_mc_queue_depth{mc="3"} 11`,
		`noc_mc_dram_row_hits{mc="3"} 6`,
		"noc_core_instructions 1000",
		`noc_probe{name="some.unknown.probe"} 1`,
		"# TYPE noc_link_flits_total counter",
		"# TYPE noc_node_injq_flits gauge",
		"# TYPE noc_latency_cycles histogram",
		`noc_latency_cycles_bucket{kind="read",segment="reqnet",le="32"} 1`,
		`noc_latency_cycles_bucket{kind="read",segment="reqnet",le="+Inf"} 1`,
		`noc_latency_cycles_sum{kind="read",segment="reqnet"} 20`,
		`noc_latency_cycles_count{kind="read",segment="reqnet"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Deterministic: two renders are byte-identical.
	if out != string(RenderPrometheus(reg, m)) {
		t.Fatal("exposition is not deterministic")
	}
}

func TestRenderPrometheusSubnetLabels(t *testing.T) {
	m := mesh.New(8, 8)
	reg := telemetry.NewRegistry()
	reg.Counter("req.net.stall.vcalloc").Add(2)
	reg.Counter("rep.net.stall.vcalloc").Add(3)
	out := string(RenderPrometheus(reg, m))
	for _, want := range []string{
		`noc_stall_cycles_total{subnet="req",cause="vcalloc"} 2`,
		`noc_stall_cycles_total{subnet="rep",cause="vcalloc"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRenderPrometheusCumulativeBuckets(t *testing.T) {
	m := mesh.New(8, 8)
	reg := telemetry.NewRegistry()
	h := reg.Histogram("latency.write.mcservice", telemetry.ExpBounds(8, 2, 3)) // bounds 8,16,32
	for _, v := range []int64{4, 4, 12, 100} {
		h.Observe(v)
	}
	out := string(RenderPrometheus(reg, m))
	for _, want := range []string{
		`le="8"} 2`, `le="16"} 3`, `le="32"} 3`, `le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cumulative buckets wrong: missing %q in\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	got := labelSet("name", `a"b\c`+"\n", "empty", "")
	want := `{name="a\"b\\c\n"}`
	if got != want {
		t.Fatalf("labelSet = %s, want %s", got, want)
	}
}

func TestRenderFleetPrometheus(t *testing.T) {
	reg := telemetry.NewRegistry()
	subs := reg.Counter("fleet.submits")
	subs.Add(3)
	reg.Gauge("fleet.queue_depth").Set(7)
	reg.Counter("fleet.worker.w1.jobs_done").Add(5)
	reg.GaugeFunc("fleet.worker.w1.heartbeat_age_ms", func() int64 { return 250 })
	reg.Counter("other.thing").Inc()

	out := string(RenderFleetPrometheus(reg))
	for _, want := range []string{
		"# TYPE fleet_submits_total counter",
		"fleet_submits_total 3",
		"# TYPE fleet_queue_depth gauge",
		"fleet_queue_depth 7",
		`fleet_worker_jobs_done_total{worker="w1"} 5`,
		`fleet_worker_heartbeat_age_ms{worker="w1"} 250`,
		`fleet_probe{name="other.thing"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderFleetPrometheus output missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	var fams []string
	for _, line := range strings.Split(out, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(f)[0])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] < fams[i-1] {
			t.Fatalf("families not sorted: %v", fams)
		}
	}
}
