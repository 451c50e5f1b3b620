package lint

import "testing"

func TestHotpathFixture(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "hotpathfix", "gpgpunoc/testdata/hotpathfix")
	if extra := checkFixture(t, pkg, Hotpath, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings: %v", extra)
	}
}

func TestHotpathSeverity(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "hotpathfix", "gpgpunoc/testdata/hotpathfix2")
	findings := Run([]*Package{pkg}, []*Analyzer{Hotpath}, Config{}, l.ModulePath())
	if len(findings) == 0 {
		t.Fatal("hotpath fixture produced no findings")
	}
	for _, f := range findings {
		if f.Severity != SeverityWarning {
			t.Errorf("hotpath finding severity = %q, want %q: %s", f.Severity, SeverityWarning, f)
		}
	}
}

func TestPublishFixture(t *testing.T) {
	l := newTestLoader(t)
	// Preload the mini obs server under the real import path: the fixture's
	// import then resolves to it from the loader cache, and the analyzer
	// recognizes its Set* methods as retention sinks.
	obsPkg := loadFixture(t, l, "obsfix", "gpgpunoc/internal/obs")
	if extra := checkFixture(t, obsPkg, Publish, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings in obs fixture: %v", extra)
	}
	pkg := loadFixture(t, l, "publishfix", "gpgpunoc/testdata/publishfix")
	if extra := checkFixture(t, pkg, Publish, l.ModulePath()); len(extra) != 0 {
		t.Errorf("unexpected extra findings: %v", extra)
	}
}
