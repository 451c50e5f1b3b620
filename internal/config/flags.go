package config

import (
	"flag"
	"fmt"
	"os"
)

// Overrides captures the subset of configuration fields a caller explicitly
// set, so they can be layered over any base configuration — a JSON file, a
// per-experiment base, or Default(). A nil pointer means "leave the base
// value alone"; this is what lets `-config file.json -routing yx` override
// only the routing while keeping everything else from the file.
type Overrides struct {
	Placement            *Placement
	Routing              *Routing
	VCPolicy             *VCPolicy
	VCsPerPort           *int
	VCDepth              *int
	AsymmetricRequestVCs *int
	PhysicalSubnets      *bool
	SubnetHalfWidth      *bool
	ReferenceStepper     *bool
	FastForward          *bool
	WarmupCycles         *int
	MeasureCycles        *int
	Seed                 *uint64
	AllowUnsafe          *bool
}

// Apply overlays the set fields onto base and returns the result.
func (o Overrides) Apply(base Config) Config {
	if o.Placement != nil {
		base.Placement = *o.Placement
	}
	if o.Routing != nil {
		base.NoC.Routing = *o.Routing
	}
	if o.VCPolicy != nil {
		base.NoC.VCPolicy = *o.VCPolicy
	}
	if o.VCsPerPort != nil {
		base.NoC.VCsPerPort = *o.VCsPerPort
	}
	if o.VCDepth != nil {
		base.NoC.VCDepth = *o.VCDepth
	}
	if o.AsymmetricRequestVCs != nil {
		base.NoC.AsymmetricRequestVCs = *o.AsymmetricRequestVCs
	}
	if o.PhysicalSubnets != nil {
		base.NoC.PhysicalSubnets = *o.PhysicalSubnets
	}
	if o.SubnetHalfWidth != nil {
		base.NoC.SubnetHalfWidth = *o.SubnetHalfWidth
	}
	if o.ReferenceStepper != nil {
		base.NoC.ReferenceStepper = *o.ReferenceStepper
	}
	if o.FastForward != nil {
		base.FastForward = *o.FastForward
	}
	if o.WarmupCycles != nil {
		base.WarmupCycles = *o.WarmupCycles
	}
	if o.MeasureCycles != nil {
		base.MeasureCycles = *o.MeasureCycles
	}
	if o.Seed != nil {
		base.Seed = *o.Seed
	}
	if o.AllowUnsafe != nil {
		base.AllowUnsafe = *o.AllowUnsafe
	}
	return base
}

// Flags is the one flag→configuration mapping shared by every CLI. Bind it
// with BindFlags, parse, then call Config (full configuration) or
// Overrides (only the flags the user actually set).
type Flags struct {
	fs *flag.FlagSet

	file      string
	placement string
	routing   string
	vcpolicy  string
	vcs       int
	depth     int
	reqvcs    int
	cycles    int
	warmup    int
	seed      uint64
	dual      bool
	halfwidth bool
	refstep   bool
	fastfwd   bool
	unsafe    bool
}

// BindFlags registers the simulation-configuration flags on fs and returns
// the handle to read them back after parsing. Defaults mirror Default(), so
// `tool` with no flags simulates the Table 2 baseline.
func BindFlags(fs *flag.FlagSet) *Flags {
	d := Default()
	f := &Flags{fs: fs}
	fs.StringVar(&f.file, "config", "", "JSON configuration file (explicitly set flags override it)")
	fs.StringVar(&f.placement, "placement", string(d.Placement), "MC placement: bottom, top, edge, top-bottom, diamond")
	fs.StringVar(&f.routing, "routing", string(d.NoC.Routing), "routing algorithm: xy, yx, xy-yx")
	fs.StringVar(&f.vcpolicy, "vcpolicy", string(d.NoC.VCPolicy), "VC policy: split, asymmetric, monopolized, partial, shared")
	fs.IntVar(&f.vcs, "vcs", d.NoC.VCsPerPort, "virtual channels per port")
	fs.IntVar(&f.depth, "depth", d.NoC.VCDepth, "VC buffer depth in flits")
	fs.IntVar(&f.reqvcs, "reqvcs", d.NoC.AsymmetricRequestVCs, "request VCs under the asymmetric policy")
	fs.IntVar(&f.cycles, "cycles", d.MeasureCycles, "measurement cycles")
	fs.IntVar(&f.warmup, "warmup", d.WarmupCycles, "warmup cycles")
	fs.Uint64Var(&f.seed, "seed", d.Seed, "random seed")
	fs.BoolVar(&f.dual, "dual", false, "use two physical subnetworks instead of VC separation")
	fs.BoolVar(&f.halfwidth, "halfwidth", false, "with -dual, give each subnet half-width channels (equal wire budget)")
	fs.BoolVar(&f.refstep, "reference-stepper", false, "use the naive full-scan cycle kernel (bit-identical, slower; for equivalence testing)")
	fs.BoolVar(&f.fastfwd, "fastforward", d.FastForward, "jump over globally idle cycles to the next event horizon (results are bit-identical)")
	fs.BoolVar(&f.unsafe, "allow-unsafe", false, "accept configurations the protocol-deadlock analysis rejects")
	return f
}

// Bind is BindFlags on the process-wide flag.CommandLine set.
func Bind() *Flags { return BindFlags(flag.CommandLine) }

// Overrides returns only the fields whose flags were explicitly set on the
// command line. The FlagSet must have been parsed.
func (f *Flags) Overrides() Overrides {
	var o Overrides
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "placement":
			v := Placement(f.placement)
			o.Placement = &v
		case "routing":
			v := Routing(f.routing)
			o.Routing = &v
		case "vcpolicy":
			v := VCPolicy(f.vcpolicy)
			o.VCPolicy = &v
		case "vcs":
			o.VCsPerPort = &f.vcs
		case "depth":
			o.VCDepth = &f.depth
		case "reqvcs":
			o.AsymmetricRequestVCs = &f.reqvcs
		case "cycles":
			o.MeasureCycles = &f.cycles
		case "warmup":
			o.WarmupCycles = &f.warmup
		case "seed":
			o.Seed = &f.seed
		case "dual":
			o.PhysicalSubnets = &f.dual
		case "halfwidth":
			o.SubnetHalfWidth = &f.halfwidth
		case "reference-stepper":
			o.ReferenceStepper = &f.refstep
		case "fastforward":
			o.FastForward = &f.fastfwd
		case "allow-unsafe":
			o.AllowUnsafe = &f.unsafe
		}
	})
	return o
}

// Config assembles the final configuration: the -config file (or Default()
// when absent) with the explicitly set flags layered on top, validated.
func (f *Flags) Config() (Config, error) {
	base := Default()
	if f.file != "" {
		data, err := os.ReadFile(f.file)
		if err != nil {
			return Config{}, err
		}
		base, err = Decode(data)
		if err != nil {
			return Config{}, fmt.Errorf("%s: %w", f.file, err)
		}
	}
	cfg := f.Overrides().Apply(base)
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
