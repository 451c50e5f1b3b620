// Package fleetobs is the fleet-level observability substrate shared by the
// simulator and the sweep fabric: a bounded, allocation-free flight recorder
// of recent events (cycle-domain on the simulator side, lease/heartbeat
// wall-time events on the coordinator side), a per-job span timeline model
// for the /sweeps/{id}/timeline endpoint, and a Prometheus text renderer for
// the fleet probe naming scheme.
//
// The recorder follows the repository's nil-gated observability idiom
// (telemetry probes, noc.Network.SetTracer): an unattached recorder costs
// one predictable nil check per site, and recording into an attached one is
// a plain struct store into a preallocated ring — no allocation, no locks.
// The ring is single-writer: the simulation stepping goroutine on the sim
// side, the coordinator under its own mutex on the fabric side.
package fleetobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Kind classifies one flight-recorder event.
type Kind uint8

// Event kinds. The A/B/C payload meaning is per-kind (documented here and
// in DESIGN.md §15); Cycle is the simulated cycle for sim-domain events and
// -1 for fabric-side events, whose A field carries milliseconds since the
// coordinator started instead.
const (
	// KindPhase: run-phase entry. A: 0 = warmup, 1 = measurement.
	KindPhase Kind = iota
	// KindCheckpoint: periodic watchdog/cancellation checkpoint (every 512
	// cycles). A: flits in flight, B: total fast-forwarded cycles.
	KindCheckpoint
	// KindInvariantOK: a sampled CheckInvariants pass.
	KindInvariantOK
	// KindInvariantFail: CheckInvariants failed; the run aborts after this.
	KindInvariantFail
	// KindFastForward: an idle-cycle jump landed. A: cycles skipped.
	KindFastForward
	// KindWatchdog: the deadlock watchdog tripped. A: flits in flight.
	KindWatchdog
	// KindPanic: a panic unwound through the run loop.
	KindPanic
	// KindRegister: fabric: a worker registered. A: wall ms, B: worker number.
	KindRegister
	// KindLease: fabric: a lease was granted. A: wall ms, B: worker number,
	// C: jobs in the lease.
	KindLease
	// KindHeartbeat: fabric: a lease renewal. A: wall ms, B: worker number.
	KindHeartbeat
	// KindLeaseExpired: fabric: a lease died unrenewed. A: wall ms,
	// B: worker number, C: jobs forfeited.
	KindLeaseExpired
	// KindComplete: fabric: a worker posted records. A: wall ms, B: worker
	// number, C: records accepted.
	KindComplete
	// KindRequeue: fabric: a failed job went back in the queue. A: wall ms.
	KindRequeue
	// KindQuarantine: fabric: a poison job was quarantined. A: wall ms.
	KindQuarantine
)

var kindNames = [...]string{
	"phase", "checkpoint", "invariant_ok", "invariant_fail", "fast_forward",
	"watchdog", "panic", "register", "lease", "heartbeat", "lease_expired",
	"complete", "requeue", "quarantine",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindByName inverts String for the dump parser.
func kindByName(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one recorded flight-recorder entry. Seq is the global event
// number (monotonic, so a wrapped ring still orders and counts drops);
// Cycle is the simulated cycle (-1 for fabric-side events); A/B/C carry the
// per-kind payload.
type Event struct {
	Seq   uint64
	Cycle int64
	Kind  Kind
	A     int64
	B     int64
	C     int64
}

// Recorder is a fixed-size ring of recent events. Construct with
// NewRecorder; a nil *Recorder is a valid no-op target, so call sites need
// no gate of their own.
type Recorder struct {
	ring []Event
	mask uint64
	seq  uint64
}

// NewRecorder returns a recorder holding the most recent `size` events
// (rounded up to a power of two, minimum 64).
func NewRecorder(size int) *Recorder {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Recorder{ring: make([]Event, n), mask: uint64(n) - 1}
}

// Record appends one event, overwriting the oldest when the ring is full.
// Single-writer: the owner's goroutine (or lock) serializes calls.
//
//noclint:hotpath root: flight-recorder store, a few int64 writes into a preallocated ring
func (r *Recorder) Record(cycle int64, k Kind, a, b, c int64) {
	if r == nil {
		return
	}
	e := &r.ring[r.seq&r.mask]
	e.Seq = r.seq
	e.Cycle = cycle
	e.Kind = k
	e.A = a
	e.B = b
	e.C = c
	r.seq++
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.seq < uint64(len(r.ring)) {
		return int(r.seq)
	}
	return len(r.ring)
}

// Recorded returns the total number of events ever recorded; subtracting
// Len gives how many the ring has dropped.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Events returns the retained events oldest-first, as a copy.
func (r *Recorder) Events() []Event {
	n := r.Len()
	out := make([]Event, 0, n)
	for i := r.Recorded() - uint64(n); i < r.Recorded(); i++ {
		out = append(out, r.ring[i&r.mask])
	}
	return out
}

// DumpHeader is the first line of a flight-recorder JSONL dump.
type DumpHeader struct {
	Flight   string `json:"flight"` // format version, "v1"
	Source   string `json:"source"` // "gpu" or "coordinator"
	Reason   string `json:"reason"` // what triggered the dump
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
}

// dumpEvent is one JSONL event line, kind stringified for readability.
type dumpEvent struct {
	Seq   uint64 `json:"seq"`
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
}

// WriteJSONL writes the post-mortem dump: one header line, then the
// retained events oldest-first, one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer, source, reason string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := DumpHeader{
		Flight:   "v1",
		Source:   source,
		Reason:   reason,
		Recorded: r.Recorded(),
		Dropped:  r.Recorded() - uint64(r.Len()),
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if err := enc.Encode(dumpEvent{
			Seq: e.Seq, Cycle: e.Cycle, Kind: e.Kind.String(), A: e.A, B: e.B, C: e.C,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump writes the JSONL snapshot to <dir>/<name>.flight.jsonl (creating
// dir), returning the path. The name is caller-chosen and deterministic, so
// a retried job overwrites its previous dump instead of accumulating.
func (r *Recorder) Dump(dir, name, source, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("fleetobs: dump dir: %w", err)
	}
	path := filepath.Join(dir, name+".flight.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("fleetobs: dump: %w", err)
	}
	if err := r.WriteJSONL(f, source, reason); err != nil {
		f.Close()
		return "", fmt.Errorf("fleetobs: dump %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("fleetobs: dump %s: %w", path, err)
	}
	return path, nil
}

// ReadDump parses a dump produced by WriteJSONL.
func ReadDump(r io.Reader) (DumpHeader, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var hdr DumpHeader
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if err := json.Unmarshal([]byte(text), &hdr); err != nil {
				return hdr, nil, fmt.Errorf("fleetobs: dump header: %w", err)
			}
			if hdr.Flight != "v1" {
				return hdr, nil, fmt.Errorf("fleetobs: unknown dump format %q", hdr.Flight)
			}
			continue
		}
		var de dumpEvent
		if err := json.Unmarshal([]byte(text), &de); err != nil {
			return hdr, nil, fmt.Errorf("fleetobs: dump line %d: %w", line, err)
		}
		k, ok := kindByName(de.Kind)
		if !ok {
			return hdr, nil, fmt.Errorf("fleetobs: dump line %d: unknown kind %q", line, de.Kind)
		}
		events = append(events, Event{Seq: de.Seq, Cycle: de.Cycle, Kind: k, A: de.A, B: de.B, C: de.C})
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	if line == 0 {
		return hdr, nil, fmt.Errorf("fleetobs: empty dump")
	}
	return hdr, events, nil
}
