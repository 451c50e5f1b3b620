package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the catalog must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// shortRun measures w for one second (at least one iteration, two when
// traced) at the default seed against g.
func shortRun(t *testing.T, w workload, trace bool, g golden) *report {
	t.Helper()
	o := options{
		seed:     defaultSeed,
		seconds:  time.Second,
		trace:    trace,
		minIters: 1,
		work:     t.TempDir(),
		golden:   g,
	}
	if trace {
		o.minIters = 2
	}
	r, err := measure(context.Background(), w, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// lastLine returns the result object a run prints last.
func lastLine(t *testing.T, r *report) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	return out
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				r := shortRun(t, w, trace, g)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.Failures)
				}
				out := lastLine(t, r)
				want := endToEnd
				if trace {
					want = perLayer
				}
				metrics, _ := out["metrics"].(map[string]any)
				if len(metrics) != len(want) {
					t.Errorf("result carries %d metrics, want %d", len(metrics), len(want))
				}
				for _, d := range want {
					m, ok := metrics[d.Name].(map[string]any)
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m["unit"] != d.Unit {
						t.Errorf("metric %s: unit %v, want %s", d.Name, m["unit"], d.Unit)
					}
					if !trace && m["value"].(float64) <= 0 {
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", d.Name, m["value"])
					}
				}
				if w.grid && trace && r.Metrics["fabric.store_hits"].Value != 0 {
					t.Errorf("fabric.store_hits = %v on a fresh store", r.Metrics["fabric.store_hits"].Value)
				}
			})
		}
	}
}

func TestPerturbedGoldenFails(t *testing.T) {
	w, err := findWorkload("paper-read")
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(w.name)
	if err != nil {
		t.Fatal(err)
	}
	m := *g[0].Record.Metrics
	m.IPC += 1e-9
	g[0].Record.Metrics = &m
	r := shortRun(t, w, false, g)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("perturbed golden passed: correct=%t failed=%d", r.Correct, r.Failed)
	}
	if !strings.Contains(strings.Join(r.Failures, "\n"), "golden mismatch") {
		t.Errorf("failures do not name the golden: %v", r.Failures)
	}
}

func TestCompareRefusesHostMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		r := report{Workload: "paper-read", Host: host{GOMAXPROCS: procs, NumCPU: 2},
			Metrics: map[string]value{"setup_s": {0.005, "s"}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 1), write("c.json", 2)
	var buf bytes.Buffer
	if err := compare(&buf, []string{a, b}); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("compare across GOMAXPROCS: err = %v, want a refusal", err)
	}
	if err := compare(&buf, []string{a, c}); err != nil {
		t.Errorf("compare on one host: %v", err)
	}
}
