package main

import (
	"fmt"
	"sync"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

// checker is the correctness gate. Every simulated statistic is
// deterministic for a fixed seed, so each completed job is compared with
// the stored golden (at defaultSeed) and with the first run of the same
// job in this invocation: a traced run must be byte-identical to an
// untraced one, and a repeat to its first run. Errors, deadlocks and
// mismatches count as failed jobs.
type checker struct {
	golden golden // nil: no golden check at this seed

	mu        sync.Mutex
	first     map[int]string // job index -> digest of its first run
	attempted int
	failed    int
	failures  []string
}

func newChecker(g golden) *checker {
	return &checker{golden: g, first: map[int]string{}}
}

// run checks one finished job: index i in expansion order, its record and
// the full result it was built from.
func (c *checker) run(i int, rec sweep.Record, res gpu.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case rec.Status != sweep.StatusOK:
		c.failLocked(fmt.Sprintf("job %d (%s): %s: %s", i, rec.Key, rec.Status, rec.Error))
		return
	case rec.Deadlocked || res.Deadlocked:
		c.failLocked(fmt.Sprintf("job %d (%s): deadlocked", i, rec.Key))
		return
	}
	got := canonicalOf(rec, res)
	if c.golden != nil {
		if msg := c.golden.check(i, got); msg != "" {
			c.failLocked(msg)
			return
		}
	}
	d := digest(res)
	if want, ok := c.first[i]; !ok {
		c.first[i] = d
	} else if d != want {
		c.failLocked(fmt.Sprintf("job %d (%s): result differs from its first run (traced vs untraced, or nondeterminism)", i, rec.Key))
	}
}

// noResult records a job that produced no result.
func (c *checker) noResult(i int, key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failLocked(fmt.Sprintf("job %d (%s): %v", i, key, err))
}

// fail records a failure that is not tied to one job's result.
func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(msg)
}

// maxFailures bounds the failure messages a report lists; every failure
// still counts.
const maxFailures = 20

func (c *checker) failLocked(msg string) {
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, msg)
	}
}

func (c *checker) counts() (attempted, failed int, failures []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.failures...)
}
