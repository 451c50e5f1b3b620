package gpu

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/workload"
)

// failingNet wraps the real interconnect and makes CheckInvariants fail
// after a set number of calls — an injected invariant violation.
type failingNet struct {
	noc.Interconnect
	checks int
	failAt int
}

func (f *failingNet) CheckInvariants() error {
	f.checks++
	if f.checks >= f.failAt {
		return fmt.Errorf("injected invariant violation (check %d)", f.checks)
	}
	return f.Interconnect.CheckInvariants()
}

// panicNet wraps the real interconnect and panics on the Nth Step.
type panicNet struct {
	noc.Interconnect
	steps   int
	panicAt int
}

func (p *panicNet) Step() {
	p.steps++
	if p.steps >= p.panicAt {
		panic("injected kernel panic")
	}
	p.Interconnect.Step()
}

func TestFlightDumpOnInvariantFailure(t *testing.T) {
	dir := t.TempDir()
	prof := workload.MustGet("KMN")
	s, err := New(quickCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFlight(256, dir)
	s.SanitizeEvery = 64
	// Swap in the failing wrapper after AttachFlight: the recorder stays on
	// the real network underneath, the wrapper only intercepts the check.
	s.Net = &failingNet{Interconnect: s.Net, failAt: 5}

	_, err = s.RunContext(context.Background())
	if err == nil {
		t.Fatal("expected sanitizer error")
	}
	if !strings.Contains(err.Error(), "injected invariant violation") {
		t.Fatalf("error does not carry the violation: %v", err)
	}
	if !strings.Contains(err.Error(), "flight dump: ") {
		t.Fatalf("error does not point at the flight dump: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-invariant.flight.jsonl", prof.Name, s.Cfg.Seed))
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	defer f.Close()
	hdr, events, err := fleetobs.ReadDump(f)
	if err != nil {
		t.Fatalf("dump unreadable: %v", err)
	}
	if hdr.Source != "gpu" || hdr.Reason != "invariant" {
		t.Fatalf("dump header %+v", hdr)
	}
	if len(events) == 0 {
		t.Fatal("dump carries no events")
	}
	last := events[len(events)-1]
	if last.Kind != fleetobs.KindInvariantFail {
		t.Fatalf("last event %v, want invariant_fail", last.Kind)
	}
	// The sampled checks before the failure must be on record too.
	var oks int
	for _, e := range events {
		if e.Kind == fleetobs.KindInvariantOK {
			oks++
		}
	}
	if oks != 4 {
		t.Fatalf("recorded %d invariant_ok events before the failure, want 4", oks)
	}
}

func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	prof := workload.MustGet("KMN")
	s, err := New(quickCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFlight(256, dir)
	s.Net = &panicNet{Interconnect: s.Net, panicAt: 700}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed instead of re-raised")
			}
		}()
		s.RunContext(context.Background())
	}()

	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-panic.flight.jsonl", prof.Name, s.Cfg.Seed))
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("panic dump not written: %v", err)
	}
	defer f.Close()
	hdr, events, err := fleetobs.ReadDump(f)
	if err != nil {
		t.Fatalf("dump unreadable: %v", err)
	}
	if hdr.Reason != "panic" {
		t.Fatalf("dump header %+v", hdr)
	}
	if events[len(events)-1].Kind != fleetobs.KindPanic {
		t.Fatalf("last event %v, want panic", events[len(events)-1].Kind)
	}
}

func TestFlightRecordsCleanRun(t *testing.T) {
	cfg := quickCfg()
	cfg.FastForward = true
	res, err := Run(context.Background(), cfg, "KMN", RunOptions{
		FlightRecorder: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flight == nil {
		t.Fatal("result does not carry the recorder")
	}
	events := res.Flight.Events()
	var phases, checkpoints, ffs int
	for _, e := range events {
		switch e.Kind {
		case fleetobs.KindPhase:
			phases++
		case fleetobs.KindCheckpoint:
			checkpoints++
		case fleetobs.KindFastForward:
			ffs++
		}
	}
	if phases != 2 {
		t.Fatalf("recorded %d phase entries, want 2 (warmup + measurement)", phases)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint events recorded")
	}
	if res.FastForwarded > 0 && ffs == 0 {
		t.Fatalf("run fast-forwarded %d cycles but recorded no jumps", res.FastForwarded)
	}
	if res.FastForwarded == 0 {
		t.Log("run never idled; fast-forward events not exercised")
	}
}

func TestFlightRecorderDoesNotChangeResults(t *testing.T) {
	base, err := Run(context.Background(), quickCfg(), "KMN", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(context.Background(), quickCfg(), "KMN", RunOptions{FlightRecorder: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC != rec.IPC || base.GPU != rec.GPU {
		t.Fatalf("recorder changed results: base IPC %v GPU %+v, recorded IPC %v GPU %+v",
			base.IPC, base.GPU, rec.IPC, rec.GPU)
	}
}
