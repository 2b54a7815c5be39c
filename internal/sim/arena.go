package sim

import (
	"fmt"

	"repro/internal/graph"
)

// arenaChunk is the slab size of the train and fragment pools; a power of
// two so the index split below is a shift and a mask.
const (
	arenaChunkShift = 8
	arenaChunk      = 1 << arenaChunkShift
)

// arena pools trains and fragments across runs of one Engine. Objects are
// bump-allocated per run and recycled wholesale on the next reset, so a
// steady-state round allocates nothing. Objects live in fixed-size slabs:
// a handed-out pointer stays valid for the Engine's lifetime (slabs are
// appended, never reallocated), and consecutive allocations are adjacent
// in memory — the per-step walk over the active list visits fragments in
// roughly allocation order, so slab locality turns the walk's pointer
// chasing into a mostly-sequential stream. Wavelength slices keep their
// capacity across recycles.
//
// Every train's links and keys are carved from ints, one flat []int32 per
// run: a train's two slices sit side by side, and the trains of a run are
// packed in spawn order. Run reserves the whole run's need up front; a
// dynamic run grows the buffer geometrically. A new block leaves the
// slices already carved from the old one valid (the trains keep it
// reachable), and the largest block is reused by the next run, so steady
// state allocates nothing.
type arena struct {
	trainSlabs [][]train
	nextTrain  int
	fragSlabs  [][]fragment
	nextFrag   int
	ints       []int32
}

// reset recycles every object handed out since the previous reset.
func (a *arena) reset() {
	a.nextTrain = 0
	a.nextFrag = 0
	a.ints = a.ints[:0]
}

// reserve makes room for n more int32s without further allocation.
func (a *arena) reserve(n int) {
	if cap(a.ints)-len(a.ints) < n {
		a.ints = make([]int32, 0, max(n, 2*cap(a.ints)))
	}
}

// carve returns the next n int32s of the buffer, with length and capacity
// n. Contents are stale; callers overwrite every element.
//
//optlint:hotpath
func (a *arena) carve(n int) []int32 {
	if cap(a.ints)-len(a.ints) < n {
		//optlint:allow hotpath geometric growth: a reserved run never grows, a dynamic run O(log n) times
		a.ints = make([]int32, 0, max(n, 1024, 2*cap(a.ints)))
	}
	lo := len(a.ints)
	a.ints = a.ints[:lo+n]
	return a.ints[lo : lo+n : lo+n]
}

// newTrain returns a recycled train. Scalar fields are NOT zeroed: every
// spawn site (the Run worm loop, spawnAck, the dynamic launcher) assigns
// all of them — links from carve — before addTrain, and addTrain reslices
// waves and carves keys. Only the two flags no site writes
// unconditionally are reset.
//
//optlint:hotpath
func (a *arena) newTrain() *train {
	ci, si := a.nextTrain>>arenaChunkShift, a.nextTrain&(arenaChunk-1)
	if ci == len(a.trainSlabs) {
		//optlint:allow hotpath slab growth: amortized over arenaChunk allocations, none in steady state
		a.trainSlabs = append(a.trainSlabs, make([]train, arenaChunk))
	}
	tr := &a.trainSlabs[ci][si]
	a.nextTrain++
	tr.isAck = false
	tr.cut = false
	return tr
}

// newFrag returns an initialized fragment. The largest usable link index
// is fixed here (the barrier never moves after creation), so hot loops
// read f.lim instead of recomputing it.
//
//optlint:hotpath
func (a *arena) newFrag(t *train, jMin, jMax, barrier, relUpTo int) *fragment {
	ci, si := a.nextFrag>>arenaChunkShift, a.nextFrag&(arenaChunk-1)
	if ci == len(a.fragSlabs) {
		//optlint:allow hotpath slab growth: amortized over arenaChunk allocations, none in steady state
		a.fragSlabs = append(a.fragSlabs, make([]fragment, arenaChunk))
	}
	f := &a.fragSlabs[ci][si]
	self := int32(a.nextFrag)
	a.nextFrag++
	lim := len(t.links) - 1
	if barrier < len(t.links) {
		lim = barrier - 1
	}
	*f = fragment{t: t, start: int32(t.start), jMin: int32(jMin), jMax: int32(jMax),
		barrier: int32(barrier), relUpTo: int32(relUpTo), lim: int32(lim), self: self}
	return f
}

// fillPathLinks writes p's directed link IDs into dst, which has room for
// exactly p.Len() of them (the allocating equivalent is graph.Path.Links).
// Link IDs are stored narrowed, matching train.links.
func fillPathLinks(dst []int32, g *graph.Graph, p graph.Path) []int32 {
	for i := range dst {
		id, ok := g.LinkBetween(p[i], p[i+1])
		if !ok {
			panic(fmt.Sprintf("sim: path uses missing link %d->%d", p[i], p[i+1]))
		}
		dst[i] = int32(id)
	}
	return dst
}
