package telemetry

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the telemetry JSONL reader. It
// must never panic, and whatever it accepts that a registry can represent
// (unique non-empty names, scalar kinds, valid histogram buckets) must
// survive a trip through the writer: writing the rebuilt telemetry, reading
// it back and writing again reproduces the same bytes.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		ex, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		tel, ok := rebuild(ex)
		if !ok {
			return
		}
		var first bytes.Buffer
		if err := tel.WriteJSONL(&first); err != nil {
			t.Fatal(err)
		}
		ex2, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("writer output does not parse: %v\n%s", err, first.Bytes())
		}
		tel2, ok := rebuild(ex2)
		if !ok {
			t.Fatalf("writer output is not representable:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := tel2.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the export:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
		if len(ex2.Samples) != len(ex.Samples) || len(ex2.Histograms) != len(ex.Histograms) {
			t.Fatalf("round trip kept %d/%d samples and %d/%d histograms",
				len(ex2.Samples), len(ex.Samples), len(ex2.Histograms), len(ex.Histograms))
		}
	})
}

// rebuild reconstructs the telemetry an export describes, or reports that
// no registry could have produced it.
func rebuild(ex *Export) (*Telemetry, bool) {
	if len(ex.Kinds) != len(ex.Names) {
		return nil, false
	}
	reg := NewRegistry()
	seen := map[string]bool{}
	fresh := func(name string) bool {
		if name == "" || seen[name] {
			return false
		}
		seen[name] = true
		return true
	}
	for i, name := range ex.Names {
		if !fresh(name) {
			return nil, false
		}
		switch ex.Kinds[i] {
		case KindCounter.String():
			reg.Counter(name)
		case KindGauge.String():
			reg.Gauge(name)
		case KindGaugeFunc.String():
			reg.GaugeFunc(name, func() int64 { return 0 })
		default:
			return nil, false
		}
	}
	for _, eh := range ex.Histograms {
		if !fresh(eh.Name) || len(eh.Bounds) == 0 || len(eh.Counts) != len(eh.Bounds)+1 {
			return nil, false
		}
		for i := 1; i < len(eh.Bounds); i++ {
			if eh.Bounds[i] <= eh.Bounds[i-1] {
				return nil, false
			}
		}
		h := reg.Histogram(eh.Name, eh.Bounds)
		copy(h.counts, eh.Counts)
		h.count, h.sum, h.min, h.max = eh.Count, eh.Sum, eh.Min, eh.Max
	}
	return &Telemetry{Reg: reg, EpochLen: ex.EpochLen, samples: ex.Samples}, true
}
