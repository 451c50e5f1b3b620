package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/sweep"
)

//go:embed goldens/*.json
var goldenFS embed.FS

// canonical is one job's simulated outcome in the form goldens store: the
// sweep record with its execution footprint stripped (IPC and
// stats.Metrics) plus the per-class flit counts the record only carries
// as a ratio.
type canonical struct {
	Record    sweep.Record             `json:"record"`
	Flits     [packet.NumClasses]int64 `json:"class_flits"` // ejected flits: request, reply
	LinkFlits [packet.NumClasses]int64 `json:"link_flits"`  // flit-hops: request, reply
}

// recordOf builds the record the sweep engine files for a completed run.
func recordOf(j sweep.Job, res gpu.Result) sweep.Record {
	rec := sweep.NewRecord(j)
	rec.Status = sweep.StatusOK
	rec.Deadlocked = res.Deadlocked
	m := res.Metrics()
	rec.Metrics = &m
	return rec
}

func canonicalOf(rec sweep.Record, res gpu.Result) canonical {
	c := canonical{Record: rec.Canonical()}
	if res.Net != nil {
		for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
			c.Flits[cls] = res.Net.ClassFlits(cls)
			for _, n := range res.Net.LinkFlits[cls] {
				c.LinkFlits[cls] += n
			}
		}
	}
	return c
}

func (c canonical) encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic("perfbench: canonical encoding: " + err.Error())
	}
	return b
}

// digest fingerprints everything a run produced — every GPU counter and
// the whole network collector, unexported histogram buckets included — so
// two runs compare byte for byte, not just on the reported metrics.
func digest(res gpu.Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%t %d %d %v %+v ", res.Deadlocked, res.Cycles, res.FastForwarded, res.IPC, res.GPU)
	if res.Net != nil {
		fmt.Fprintf(&b, "%+v", *res.Net)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// golden is the stored canonical results of a workload at defaultSeed, one
// per job in expansion order.
type golden []canonical

func loadGolden(name string) (golden, error) {
	data, err := goldenFS.ReadFile("goldens/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden for %s: %w", name, err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden for %s: %w", name, err)
	}
	return g, nil
}

// check compares job i's canonical result to the golden, returning a
// description of the mismatch or "".
func (g golden) check(i int, got canonical) string {
	if i >= len(g) {
		return fmt.Sprintf("job %d (%s): no golden entry", i, got.Record.Key)
	}
	want := g[i].encode()
	if have := got.encode(); !bytes.Equal(want, have) {
		return fmt.Sprintf("job %d (%s): golden mismatch\n  want %s\n  have %s", i, got.Record.Key, want, have)
	}
	return ""
}

// writeGolden stores a workload's canonical results under dir.
func writeGolden(dir, name string, cs []canonical) error {
	data, err := json.MarshalIndent(cs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}
