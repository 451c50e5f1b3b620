package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the Prometheus golden files")

// meshGoldenRegistry holds one probe of every shape the simulator
// registers, under both Dual subnet prefixes, plus names outside the
// scheme that must fall back rather than vanish.
func meshGoldenRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	v := int64(1)
	next := func() int64 { v = v*7%1009 + 1; return v }
	for _, sub := range []string{"", "req.", "rep."} {
		reg.Counter(sub + "link.N0->N1.request.flits").Add(next())
		reg.Counter(sub + "link.N0->N1.reply.flits").Add(next())
		reg.Counter(sub + "link.N5->N1.reply.flits").Add(next())
		reg.Gauge(sub + "link.N0->N1.vc0.occupancy").Set(next())
		reg.Gauge(sub + "link.N1->N2.vc3.occupancy").Set(next())
		reg.Counter(sub + "node.6.injected.flits").Add(next())
		reg.Counter(sub + "node.6.ejected.flits").Add(next())
		w := next()
		reg.GaugeFunc(sub+"node.15.injq.flits", func() int64 { return w })
		for _, c := range []string{"credit", "route", "vcalloc"} {
			reg.Counter(sub + "net.stall." + c).Add(next())
		}
		h := reg.Histogram(sub+"latency.read.reqnet", telemetry.ExpBounds(8, 2, 4))
		for i := 0; i < 9; i++ {
			h.Observe(next() % 200)
		}
		reg.Histogram(sub+"latency.write.replynet", telemetry.ExpBounds(8, 2, 2))
	}
	reg.Gauge("mc.3.queue_depth").Set(next())
	reg.Gauge("mc.3.dram.row_hits").Set(next())
	reg.Gauge("mc.10.dram.served").Set(next())
	reg.GaugeFunc("core.instructions", func() int64 { return 123456 })
	reg.Gauge("core.l1-misses").Set(next())
	reg.Counter("some.unknown.probe").Add(next())
	reg.Gauge(`weird"name\with` + "\nnewline").Set(next())
	reg.Counter("link.N9").Add(next())
	reg.Counter("link.N1->N2.vcX.bogus").Add(next())
	reg.Counter("node.x.injected.flits").Add(next())
	reg.Gauge("mc.nodot").Set(next())
	reg.Histogram("latency.a.b.c", telemetry.ExpBounds(4, 4, 2)).Observe(5)
	reg.Histogram("rep.queue.wait", telemetry.ExpBounds(4, 4, 2)).Observe(70)
	return reg
}

// fleetGoldenRegistry holds the coordinator's and a worker's probe shapes:
// fleet-wide counters and gauges, per-worker GaugeFuncs, fields already
// ending in _total, and names outside the fleet scheme.
func fleetGoldenRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	for i, f := range []string{"submits", "jobs", "leases_granted", "leases_expired", "heartbeats", "store_hits", "workers", "odd-field", "already_total"} {
		reg.Counter("fleet." + f).Add(int64(3*i + 1))
	}
	reg.Gauge("fleet.queue_depth").Set(7)
	reg.Gauge("fleet.busy").Set(1)
	reg.Gauge("fleet.level_total").Set(4)
	for _, w := range []string{"w2", "w10", `w"q`} {
		reg.GaugeFunc("fleet.worker."+w+".jobs_done", func() int64 { return int64(len(w)) })
		reg.GaugeFunc("fleet.worker."+w+".heartbeat_age_ms", func() int64 { return 250 })
		reg.Counter("fleet.worker." + w + ".leases_total").Add(2)
	}
	reg.Counter("fleet.worker.nodot").Inc()
	reg.Counter("fleet.worker..empty").Inc()
	reg.Counter("fleet.nested.field").Inc()
	reg.Counter("other.thing").Inc()
	reg.Histogram("fleet.lease_ms", telemetry.ExpBounds(8, 2, 2)).Observe(9)
	return reg
}

// TestPrometheusGolden pins the byte output of the simulator (mesh-label)
// and fleet (worker-label) Prometheus renderings, one registry each.
func TestPrometheusGolden(t *testing.T) {
	for name, render := range map[string]func() []byte{
		"prom_mesh.golden":  func() []byte { return RenderPrometheus(meshGoldenRegistry(), mesh.New(4, 4)) },
		"prom_fleet.golden": func() []byte { return RenderFleetPrometheus(fleetGoldenRegistry()) },
	} {
		path := filepath.Join("testdata", name)
		got := render()
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: rendering differs from the golden file (rerun with -update only for an intended format change)\ngot:\n%s", name, got)
		}
	}
}
