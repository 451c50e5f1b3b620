package main

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/sweep"
)

// defaultSeed is the seed the stored goldens were produced with; runs at
// any other seed are checked for determinism and trace identity only.
const defaultSeed = 1

// workload is one benchmark input set. A single-run workload simulates its
// one job serially through gpu.New + Simulator.RunContext; a grid workload
// submits its spec to an in-process fabric coordinator drained by workers.
type workload struct {
	name string
	why  string
	// spec expands to the workload's jobs for a seed.
	spec func(seed uint64) sweep.Spec
	grid bool
}

var workloads = []workload{
	{
		name: "paper-read",
		why:  "Table-2 8x8, bottom MCs, YX, monopolized VCs on KMN: NoC-bound, read-reply heavy, fits the L2s",
		spec: func(seed uint64) sweep.Spec {
			return single(table2(config.PlacementBottom, config.RoutingYX, config.VCMonopolized, 2), "KMN", seed)
		},
	},
	{
		name: "paper-write",
		why:  "Table-2 8x8, diamond MCs, XY-YX, asymmetric 1:3 VCs on store-heavy RAY: both classes share links",
		spec: func(seed uint64) sweep.Spec {
			return single(table2(config.PlacementDiamond, config.RoutingXYYX, config.VCAsymmetric, 4), "RAY", seed)
		},
	},
	{
		name: "grid16-fabric",
		why:  "12 jobs on 16x16 (KMN,BFS,CP x xy,yx x 2 seeds) through coordinator + 2 workers: sweep, fabric, big set-up",
		grid: true,
		spec: func(seed uint64) sweep.Spec {
			base := large()
			return sweep.Spec{
				Base:       &base,
				Benchmarks: []string{"KMN", "BFS", "CP"},
				Routings:   []config.Routing{config.RoutingXY, config.RoutingYX},
				Seeds:      []uint64{seed, seed + 1},
			}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// table2 is the paper's 8x8 system (config.Default) with one design point
// and the benchmark's run length. Fast-forward is on so that
// gpu.ff_cycle_frac reports whether it ever engages.
func table2(pl config.Placement, r config.Routing, p config.VCPolicy, vcs int) config.Config {
	cfg := config.Default()
	cfg.Placement = pl
	cfg.NoC.Routing = r
	cfg.NoC.VCPolicy = p
	cfg.NoC.VCsPerPort = vcs
	cfg.WarmupCycles, cfg.MeasureCycles = 2_000, 8_000
	cfg.FastForward = true
	return cfg
}

// large is the 16x16 system: 240 SMs and 16 MCs at the bottom, monopolized
// VCs, the serial kernel.
func large() config.Config {
	cfg := table2(config.PlacementBottom, config.RoutingXY, config.VCMonopolized, 2)
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Mem.NumMCs = 16
	cfg.Core.NumSMs = 240
	cfg.WarmupCycles, cfg.MeasureCycles = 1_000, 5_000
	return cfg
}

// single wraps one design point as a one-job spec.
func single(cfg config.Config, bench string, seed uint64) sweep.Spec {
	return sweep.Spec{Base: &cfg, Benchmarks: []string{bench}, Seeds: []uint64{seed}}
}

// jobs expands the workload's spec for seed.
func (w workload) jobs(seed uint64) ([]sweep.Job, error) {
	jobs, skips, err := w.spec(seed).Expand()
	if err != nil {
		return nil, err
	}
	if len(skips) > 0 {
		return nil, fmt.Errorf("%s: %d grid points skipped (first: %s: %s)", w.name, len(skips), skips[0].Key, skips[0].Reason)
	}
	return jobs, nil
}
