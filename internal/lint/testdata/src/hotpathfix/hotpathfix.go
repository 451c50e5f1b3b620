// Package hotpathfix is a lint fixture exercising the hotpath allocation
// linter: annotated roots, transitively reachable helpers, the panic-subtree
// exemption, and unannotated cold code that must stay unflagged.
package hotpathfix

import "fmt"

type buf struct {
	data []byte
	m    map[string]int
}

// step is a hot root; the annotation line is itself a justified directive.
//
//noclint:hotpath root: fixture hot loop
func (b *buf) step(v int) {
	b.data = append(b.data, byte(v)) // want "append may grow the backing array"
	helper(b)
	if v < 0 {
		panic(fmt.Sprintf("hotpathfix: bad %d", v)) // cold path: exempt
	}
}

// helper is unannotated but reachable from step, so it is checked too.
func helper(b *buf) {
	b.m = map[string]int{} // want "map literal allocates"
	s := []int{1, 2}       // want "slice literal allocates its backing array"
	_ = s
	p := &buf{} // want "&-composite literal escapes to the heap"
	_ = p
	q := new(buf) // want "new allocates"
	_ = q
	r := make([]byte, 4) // want "make allocates"
	_ = r
	fmt.Println(b) // want "fmt.Println formats through interfaces and allocates"
}

// run is a second root exercising conversions, boxing, concat and closures.
//
//noclint:hotpath root: fixture conversion checks
func run(s string, v int) {
	bs := []byte(s) // want "conversion between string and byte/rune slice copies"
	_ = bs
	_ = any(v) // want "boxes the value"

	t := s + "!" // want "string concatenation allocates"
	_ = t

	f := func() int { return v } // want "closure captures enclosing variables and allocates"
	_ = f()

	g := func() int { return 1 } // captures nothing: no allocation
	_ = g()

	_ = int64(v) // scalar conversion: free
}

// amortized shows the sanctioned suppression pattern for reuse sites.
//
//noclint:hotpath root: fixture amortized site
func amortized(dst []byte) []byte {
	dst = append(dst, 1) //noclint:hotpath amortized: fixture keeps capacity across resets
	return dst
}

// spinWait mirrors the parallel kernel's barrier wait: a pure load/yield
// spin loop must stay allocation-free end to end, including the park path's
// condition check — only the diagnostic on failure may allocate, and it
// lives in a panic subtree.
//
//noclint:hotpath root: fixture spin-wait barrier
func spinWait(gen *uint64, want uint64, yield func()) {
	for i := 0; i < 128; i++ {
		if *gen >= want {
			return
		}
	}
	for *gen < want {
		yield()
	}
	if *gen > want+1 {
		panic(fmt.Sprintf("hotpathfix: barrier overrun gen=%d", *gen)) // cold path: exempt
	}
}

// retile models an epoch-boundary regroup: gathering members into a
// scratch slice that keeps its capacity across epochs is the sanctioned
// amortized pattern, while building a fresh map per epoch is not.
//
//noclint:hotpath root: fixture epoch retile
func retile(scratch []int32, lanes [][]int32, owner []uint8) []int32 {
	act := scratch[:0]
	for _, ln := range lanes {
		for _, id := range ln {
			act = append(act, id) //noclint:hotpath amortized: scratch keeps capacity across epochs
		}
	}
	seen := map[int32]bool{} // want "map literal allocates"
	for _, id := range act {
		seen[id] = true
		owner[id] = 0
	}
	return act[:0]
}

// cold is neither annotated nor reachable from a root: allocations are fine.
func cold() []int {
	return []int{1, 2, 3}
}
