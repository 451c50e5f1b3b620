package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, kept in memory during a
// traced run and written out at the end. Per-cycle layers (noc.Step, the
// sinks, the endpoint gaps) are aggregated into one span per job: Start and
// End bound the job's first and last call, Busy sums the time inside the
// layer and Calls counts the calls.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int64  `json:"calls,omitempty"`
}

// spanLog collects spans; a nil *spanLog records nothing, so untraced runs
// pay one nil check per call site.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID (0 on a nil log).
func (l *spanLog) add(name string, run, parent int, start, end time.Time) int {
	return l.addAgg(name, run, parent, start, end, 0, 0)
}

func (l *spanLog) addAgg(name string, run, parent int, start, end time.Time, busy time.Duration, calls int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Name: name, Run: run, ID: id, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
		Busy: busy.Nanoseconds(), Calls: calls,
	})
	return id
}

// addLayers records the aggregated per-cycle layer spans of one traced job.
func (l *spanLog) addLayers(run, parent int, start, end time.Time, t *layerTimes) {
	l.addAgg("noc.Step", run, parent, start, end, t.nocTotal, t.cycles)
	l.addAgg("sink", run, parent, start, end, t.sink, t.sinkCalls)
	l.addAgg("endpoint", run, parent, start, end, t.endpoint, t.cycles)
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
