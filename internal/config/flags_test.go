// External test package: the protocol-deadlock safety hook that
// config.Validate consults is registered by internal/core's init, which a
// test inside package config could not import (cycle). The CLIs always have
// it installed; these tests exercise the same arrangement.
package config_test

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gpgpunoc/internal/config"
	_ "gpgpunoc/internal/core" // registers the safety check
)

func bind(t *testing.T, args ...string) *config.Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := config.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlagsDefaultIsBaseline(t *testing.T) {
	f := bind(t)
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg != config.Default() {
		t.Errorf("no flags must yield Default():\n got %+v\nwant %+v", cfg, config.Default())
	}
	if o := f.Overrides(); o != (config.Overrides{}) {
		t.Errorf("no flags set but Overrides non-empty: %+v", o)
	}
}

func TestFlagsOverridesOnlyExplicit(t *testing.T) {
	f := bind(t, "-routing", "yx", "-seed", "7")
	o := f.Overrides()
	if o.Routing == nil || *o.Routing != config.RoutingYX {
		t.Errorf("explicit -routing missing from overrides: %+v", o)
	}
	if o.Seed == nil || *o.Seed != 7 {
		t.Errorf("explicit -seed missing from overrides: %+v", o)
	}
	if o.Placement != nil || o.VCsPerPort != nil || o.MeasureCycles != nil {
		t.Errorf("unset flags leaked into overrides: %+v", o)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default()
	want.NoC.Routing = config.RoutingYX
	want.Seed = 7
	if cfg != want {
		t.Errorf("Config() mismatch:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestFlagsPerfKnobs(t *testing.T) {
	f := bind(t, "-fastforward")
	o := f.Overrides()
	if o.FastForward == nil || !*o.FastForward {
		t.Errorf("explicit -fastforward missing from overrides: %+v", o)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default()
	want.FastForward = true
	if cfg != want {
		t.Errorf("Config() mismatch:\n got %+v\nwant %+v", cfg, want)
	}
	// The retired intra-run parallelism knobs are no longer flags: passing
	// one must be a parse error, not a silent no-op.
	for _, args := range [][]string{{"-workers", "4"}, {"-rebalance-epoch", "512"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		config.BindFlags(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("retired flag %s accepted", args[0])
		}
	}
}

func TestFlagsFileThenFlagPrecedence(t *testing.T) {
	base := config.Default()
	base.NoC.Routing = config.RoutingYX
	base.NoC.VCsPerPort = 8
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The flag overrides the file's routing; the file's vcs survives even
	// though -vcs has a (different) default.
	f := bind(t, "-config", path, "-routing", "xy")
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NoC.Routing != config.RoutingXY {
		t.Errorf("explicit flag lost to file: routing = %s", cfg.NoC.Routing)
	}
	if cfg.NoC.VCsPerPort != 8 {
		t.Errorf("file value clobbered by unset flag default: vcs = %d", cfg.NoC.VCsPerPort)
	}
}

func TestFlagsConfigValidates(t *testing.T) {
	f := bind(t, "-routing", "spiral")
	if _, err := f.Config(); err == nil {
		t.Error("invalid routing accepted")
	}
	f = bind(t, "-placement", "diamond", "-vcpolicy", "monopolized")
	if _, err := f.Config(); err == nil {
		t.Error("protocol-unsafe combination accepted without -allow-unsafe")
	}
	f = bind(t, "-placement", "diamond", "-vcpolicy", "monopolized", "-allow-unsafe")
	if _, err := f.Config(); err != nil {
		t.Errorf("-allow-unsafe rejected: %v", err)
	}
}

func TestOverridesApplyEmptyIsIdentity(t *testing.T) {
	cfg := config.Default()
	cfg.NoC.VCDepth = 9
	if got := (config.Overrides{}).Apply(cfg); got != cfg {
		t.Errorf("empty overrides changed the config:\n got %+v\nwant %+v", got, cfg)
	}
}
