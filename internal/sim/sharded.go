package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/telemetry"
)

// ErrShardedUnsupported is returned by RunSharded when the configuration
// is outside the sharded fast path; callers fall back to Engine.Run.
var ErrShardedUnsupported = errors.New("sim: configuration not supported by the sharded fast path")

// ShardedSupported reports whether cfg is eligible for the sharded fast
// path: the ServeFirst rule under Drain wreckage, with any tie policy,
// bandwidth, conversion predicate, acknowledgement length, or fault
// schedule. The limits are semantic, not incidental: ServeFirst
// incumbents never surrender a slot mid-step and Drain cuts free no
// occupancy at all (the remnant inherits every claimed slot), so a
// shard can resolve its own links' conflicts against a frozen occupancy
// image and the losers' splits can be replayed after the step without
// any other shard observing a difference. Priority preemption and
// Vanish wreckage both free remote slots in the middle of resolution,
// which the lockstep exchange cannot reorder around.
func ShardedSupported(cfg Config) bool {
	return cfg.Rule == optical.ServeFirst && cfg.Wreckage == Drain
}

// ShardedRun carries the shard layout into RunSharded and accumulates
// boundary-traffic statistics across runs. The same value should be
// reused for repeated runs on one topology: the key layout cached inside
// it is built once per LinkOwner slice (which must not be modified in
// place between runs), making steady-state sharded rounds
// allocation-free.
type ShardedRun struct {
	// Shards is the number of lockstep lanes N. Each shard's lane walks
	// the fragments whose heads enter the shard's links and resolves
	// their conflicts; the lanes run on min(N, GOMAXPROCS) goroutines.
	Shards int
	// LinkOwner[id] is the shard owning directed link id (the shard of
	// the link's tail node; see shardsim.Partition). Conflict groups for
	// a link are always resolved by its owning shard.
	LinkOwner []int32
	// SlotProbes receives per-shard slot telemetry: SlotClaimed and
	// SlotReleased events for links owned by shard s are delivered to
	// SlotProbes[s], while all other events go to Config.Probe. Each
	// entry is typically a *telemetry.Collector pre-sized with Provision
	// and folded into the primary collector with Merge after the run.
	// Required (length Shards, entries non-nil) whenever Config.Probe is
	// set, and only then.
	SlotProbes []telemetry.Probe
	// BoundaryHandoffs counts worm heads that entered a link owned by a
	// different shard than their previous link; BoundaryWords counts the
	// packed occupancy words covering boundary-link slots (both bands),
	// the image a message-passing implementation would exchange, once per
	// step. Both accumulate across runs; the caller reads and resets them.
	BoundaryHandoffs uint64
	BoundaryWords    uint64

	lay shardLayout
}

// shardLayout is the key layout of a sharded run. Shard s's links take
// the band-link positions [start[s], start[s+1]) of each band, in
// ascending link-ID order, and every start is a multiple of 64, so no
// occupancy word, bucket-bitmap word or bucket is shared by two shards.
// Within a shard, key order is the global (band, link, wavelength)
// order restricted to the shard's links.
type shardLayout struct {
	owner    []int32  // the LinkOwner slice the layout was built from
	pos      []int32  // link -> position
	linkAt   []int32  // position -> link (-1 in the alignment padding)
	pairs    []uint64 // bit l: links l and l^1 have one owner
	start    []int    // lane position ranges, len Shards+1
	nPos     int
	cutShift uint   // waveShift+1 that cutWords was counted at (0: not yet)
	cutWords uint64 // occupancy words covering boundary-link slots
}

// layout returns the run's key layout for stride 1<<waveShift, building
// it when the partition changed and counting the boundary words when the
// stride did.
func (sr *ShardedRun) layout(g *graph.Graph, waveShift uint) (*shardLayout, error) {
	l := &sr.lay
	n := g.NumLinks()
	if n == 0 || len(l.owner) != n || &l.owner[0] != &sr.LinkOwner[0] || len(l.start) != sr.Shards+1 {
		l.start = make([]int, sr.Shards+1)
		for _, o := range sr.LinkOwner {
			if o < 0 || int(o) >= sr.Shards {
				l.owner = nil
				return nil, fmt.Errorf("sim: link owner %d outside [0,%d)", o, sr.Shards)
			}
			l.start[o+1]++
		}
		for s := 0; s < sr.Shards; s++ {
			l.start[s+1] = l.start[s] + (l.start[s+1]+63)&^63
		}
		l.nPos = l.start[sr.Shards]
		l.pos = make([]int32, n)
		l.linkAt = make([]int32, l.nPos)
		for p := range l.linkAt {
			l.linkAt[p] = -1
		}
		l.pairs = make([]uint64, (n+63)/64)
		next := slices.Clone(l.start)
		for id, o := range sr.LinkOwner {
			l.pos[id] = int32(next[o])
			l.linkAt[next[o]] = int32(id)
			next[o]++
			if o == sr.LinkOwner[g.Reverse(id)] {
				l.pairs[id>>6] |= 1 << uint(id&63)
			}
		}
		l.owner = sr.LinkOwner
		l.cutShift = 0
	}
	if uint64(2*l.nPos)<<waveShift > math.MaxInt32 {
		return nil, fmt.Errorf("sim: sharded occupancy key space (%d positions) exceeds int32", 2*l.nPos)
	}
	if l.cutShift != waveShift+1 {
		mark := make([]uint64, ((2*l.nPos<<waveShift+63)>>6+63)>>6)
		for id := 0; id < n; id++ {
			if l.pairs[id>>6]&(1<<uint(id&63)) != 0 {
				continue
			}
			for band := 0; band < 2; band++ {
				base := (band*l.nPos + int(l.pos[id])) << waveShift
				for wi := base >> 6; wi <= (base+1<<waveShift-1)>>6; wi++ {
					mark[wi>>6] |= 1 << uint(wi&63)
				}
			}
		}
		l.cutWords = 0
		for _, m := range mark {
			l.cutWords += uint64(bits.OnesCount64(m))
		}
		l.cutShift = waveShift + 1
	}
	return l, nil
}

// laneBox is one lane's boundary traffic to another: slots on the
// destination's links that a tail released, and fragments whose next
// entry is on the destination's links.
type laneBox struct {
	rel  []int32
	hand []*fragment
}

// laneCut is a cut a lane recorded for the coordinator.
// key is the global slot key of the lost conflict: each lane's list is in
// ascending key order, and the coordinator merges the lists back into
// the global order the single engine cuts in.
type laneCut struct {
	f       *fragment
	blocker *train
	key     int32
	idx     int32
}

// RunSharded simulates one round exactly like Run, but on the packed
// kernel split into N lanes, one per shard, under one lockstep clock. The
// shard layout comes from sr (see shardsim.PartitionGraph); results —
// Result bytes, probe-visible counters, and collision lists — are
// identical to a single-engine Run of the same inputs.
//
// The links are renumbered so that each shard owns a contiguous,
// word-aligned run of occupancy and bucket words (see shardLayout). A
// fragment is walked by the lane owning the link its head enters next;
// each lane runs the packed kernel's walk, optimistic claim, bucket
// resolution and conversion scan over its own fragments and words with
// plain stores. Per step there are two parallel phases with a barrier
// after each:
//
//  1. every lane walks its fragments (releases, then entry collection;
//     with a fault schedule, releases only). A slot on another lane's
//     link that a tail releases goes to that lane's inbox, a fragment
//     whose next link is another lane's goes to that lane, and a
//     completion is recorded.
//  2. after the coordinator has completed the recorded fragments in
//     active order, applied fault events and activated the step's
//     spawns, every lane frees its inbox, collects the fragments placed
//     on it (with faults: all of its fragments), resolves its buckets
//     and runs its conversions, recording fault kills and cuts.
//
// The coordinator then replays the kills in active order and the cuts
// merged in ascending global slot-key order, exactly where the single
// engine would have applied them. Under ServeFirst and Drain those
// deferred splits free no slot a lane resolved against (the wreckage
// inherits every claimed slot), which is what makes the frozen-occupancy
// resolution exact; see ShardedSupported.
//
// cfg.Conversion, when set, is called concurrently from lane goroutines
// and must be a pure function of the node ID. The returned error is
// ErrShardedUnsupported when cfg is outside the fast path.
func (e *Engine) RunSharded(g *graph.Graph, worms []Worm, cfg Config, sr *ShardedRun) (*Result, error) {
	if sr == nil || sr.Shards < 1 {
		return nil, errors.New("sim: sharded run needs a positive shard count")
	}
	if !ShardedSupported(cfg) {
		return nil, ErrShardedUnsupported
	}
	if len(sr.LinkOwner) != g.NumLinks() {
		return nil, fmt.Errorf("sim: sharded run has %d link owners for %d links", len(sr.LinkOwner), g.NumLinks())
	}
	if (cfg.Probe != nil || sr.SlotProbes != nil) && (len(sr.SlotProbes) != sr.Shards || cfg.Probe == nil) {
		return nil, fmt.Errorf("sim: sharded run with telemetry needs a probe and one slot probe per shard (have %d, want %d)",
			len(sr.SlotProbes), sr.Shards)
	}
	if err := e.val.check(g, worms, cfg); err != nil {
		return nil, err
	}
	lay, err := sr.layout(g, uint(bits.Len(uint(cfg.Bandwidth-1))))
	if err != nil {
		return nil, err
	}
	e.begin(g, cfg, len(worms), lay)
	if cfg.Probe != nil {
		for s := range e.lanes {
			e.lanes[s].probe = sr.SlotProbes[s]
		}
	}
	maxSteps := e.spawnWorms(worms, cfg)

	c := &e.sh
	c.start(e)
	defer c.stop()
	err = e.drive(maxSteps, func() bool { return c.alive > 0 }, func(t int) {
		c.step(t)
		sr.BoundaryWords += lay.cutWords
	})
	if err != nil {
		return nil, err
	}
	for s := range e.lanes {
		sr.BoundaryHandoffs += e.lanes[s].handoffs
	}
	return e.finish(), nil
}

// Lane phases of a sharded step (see RunSharded).
const (
	phaseWalk    = iota // fault-free: fused release/collect walk
	phaseRelease        // with a fault schedule: tail releases only
	phaseResolve        // inbox, collection of placed fragments, resolution, conversion
	phaseStop           // shut the crews down
)

// A barrier wait polls its atomic, yielding to other goroutines every
// spinYield polls; after spinPark polls (a few hundred microseconds, far
// longer than a step's phases) it parks until woken, so a wait that
// outlasts a phase — a long serial section, or a host whose CPUs other
// processes also use — does not keep burning a CPU.
const (
	spinYield = 1 << 10
	spinPark  = 1 << 16
)

// coordinator drives a sharded run: it runs the lane phases on its crews
// (the RunSharded caller is crew 0; crew w runs lanes w, w+crews, ...)
// and the serial sections between them. A phase is published by bumping
// epoch and finished when pending drops to zero; the atomics order each
// phase's plain writes before the next section's reads.
type coordinator struct {
	e       *Engine
	crews   int
	phase   int
	t       int
	epoch   atomic.Uint32
	pending atomic.Int32
	parked  []atomic.Bool   // crew w waits on wake[w]
	wake    []chan struct{} // capacity 1: one wake-up pending at most
	exited  sync.WaitGroup  // crews still running
	alive   int             // live fragments across all lanes
	frags   []*fragment
	cuts    []laneCut
}

// start readies the coordinator for a run and spawns its crews.
func (c *coordinator) start(e *Engine) {
	c.e, c.alive = e, 0
	c.crews = min(len(e.lanes), runtime.GOMAXPROCS(0))
	c.pending.Store(0)
	if len(c.wake) < c.crews {
		c.parked = make([]atomic.Bool, c.crews)
		for len(c.wake) < c.crews {
			c.wake = append(c.wake, make(chan struct{}, 1))
		}
	}
	c.exited.Add(c.crews - 1)
	for w := 1; w < c.crews; w++ {
		go c.crew(w, c.epoch.Load())
	}
}

// stop shuts the crews down and returns once they have exited.
func (c *coordinator) stop() {
	c.run(phaseStop, 0)
	c.exited.Wait()
}

// crew is the loop of crew w >= 1: wait for a phase, run it on the
// crew's lanes, report, until phaseStop.
func (c *coordinator) crew(w int, seen uint32) {
	defer c.exited.Done()
	for {
		c.await(w, func() bool { return c.epoch.Load() != seen })
		seen++
		stop := c.phase == phaseStop
		c.work(w)
		if c.pending.Add(-1) == 0 {
			c.rouse(0)
		}
		if stop {
			return
		}
	}
}

// await returns once done reports true, parking crew w on its wake
// channel when the wait grows long. A waker makes done true before it
// calls rouse, and await marks itself parked before its last look at
// done, so a wake-up cannot be lost; a stale one only costs a re-check.
func (c *coordinator) await(w int, done func() bool) {
	for n := 1; !done(); n++ {
		if n%spinYield == 0 {
			runtime.Gosched()
		}
		if n%spinPark == 0 {
			c.parked[w].Store(true)
			if !done() {
				<-c.wake[w]
			}
			c.parked[w].Store(false)
		}
	}
}

// rouse wakes crew w if it is parked.
func (c *coordinator) rouse(w int) {
	if c.parked[w].Swap(false) {
		select {
		case c.wake[w] <- struct{}{}:
		default:
		}
	}
}

// run executes phase p of step t on every lane and returns once all of
// them finished: a full barrier.
func (c *coordinator) run(p, t int) {
	c.phase, c.t = p, t
	if c.crews > 1 {
		c.pending.Store(int32(c.crews - 1))
		c.epoch.Add(1)
		for w := 1; w < c.crews; w++ {
			c.rouse(w)
		}
	}
	c.work(0)
	c.await(0, func() bool { return c.pending.Load() == 0 })
}

// work runs the current phase on crew w's lanes (none for phaseStop).
func (c *coordinator) work(w int) {
	e, t := c.e, c.t
	for s := w; s < len(e.lanes); s += c.crews {
		ln := &e.lanes[s]
		switch c.phase {
		case phaseWalk:
			ln.entries, ln.entryNext = ln.entries[:0], ln.entryNext[:0]
			ln.act, _ = e.walk(ln, ln.act, t)
		case phaseRelease:
			ln.entries, ln.entryNext = ln.entries[:0], ln.entryNext[:0]
			for _, f := range ln.act {
				if !f.gone {
					e.release(ln, f, t)
				}
			}
		case phaseResolve:
			e.freeInbox(s)
			if e.flt != nil {
				ln.act = e.collectInto(ln, ln.act[:0], ln.act, t)
			}
			for _, f := range ln.fresh {
				if tr := f.t; len(tr.waves) == 0 && tr.keys[0] < 0 {
					e.fillKeys(tr) // a train activated this step
				}
			}
			ln.act = e.collectInto(ln, ln.act, ln.fresh, t)
			ln.fresh = ln.fresh[:0]
			e.resolveBuckets(ln, t)
			e.convertPacked(ln, t)
		}
	}
}

// step advances the sharded run by one step (see RunSharded).
func (c *coordinator) step(t int) {
	e := c.e
	e.now = t
	e.nextGen()
	if e.flt == nil {
		c.run(phaseWalk, t)
	} else {
		c.run(phaseRelease, t)
	}

	// Completions, then fault events, then activations: the order of the
	// single engine's release walk and stepPacked. Completions apply in
	// active-list order, which is ascending fragment.self.
	for _, f := range c.ordered(0) {
		e.complete(f, t)
	}
	if e.flt != nil {
		// Fault events must see every release of the step applied.
		for s := range e.lanes {
			e.freeInbox(s)
		}
		e.advanceFaults(t)
	}
	e.active = e.cal.takeInto(t, e.active, &e.arena)
	c.place(t, false)

	c.run(phaseResolve, t)

	// The deferred terminal events, where the single engine applies them:
	// fault kills in active order (collection), then contention cuts and
	// failed conversions in ascending global slot-key order (resolution,
	// then conversion).
	kills := c.ordered(1)
	for _, f := range kills {
		e.faultKillEntrant(f, f.hi(t), t)
	}
	gone := len(kills) + c.replay(t, 0) + c.replay(t, 1)

	// Boundary handoffs and the fragments the cuts split off join the
	// lanes for the next step.
	c.alive = -gone
	for s := range e.lanes {
		for d := range e.lanes[s].out {
			box := &e.lanes[s].out[d]
			e.lanes[d].act = append(e.lanes[d].act, box.hand...)
			box.hand = box.hand[:0]
		}
	}
	c.place(t+1, true)
	for s := range e.lanes {
		c.alive += len(e.lanes[s].act)
	}
	e.account(t)
}

// ordered gathers the lanes' ended lists number w in active-list order,
// which is ascending fragment.self (see calendar.takeInto).
func (c *coordinator) ordered(w int) []*fragment {
	c.frags = c.frags[:0]
	for s := range c.e.lanes {
		c.frags = append(c.frags, c.e.lanes[s].ended[w]...)
		c.e.lanes[s].ended[w] = c.e.lanes[s].ended[w][:0]
	}
	slices.SortFunc(c.frags, func(a, b *fragment) int { return int(a.self - b.self) })
	return c.frags
}

// replay applies the lanes' cut lists number w in global key order and
// returns how many it applied. Each list is in ascending key order and a
// key's cuts all come from the lane owning it, so a stable sort of the
// concatenation is the merge.
func (c *coordinator) replay(t, w int) int {
	e := c.e
	c.cuts = c.cuts[:0]
	for s := range e.lanes {
		c.cuts = append(c.cuts, e.lanes[s].cuts[w]...)
		e.lanes[s].cuts[w] = e.lanes[s].cuts[w][:0]
	}
	slices.SortStableFunc(c.cuts, func(a, b laneCut) int { return int(a.key - b.key) })
	for _, rec := range c.cuts {
		e.cutEntrant(rec.f, int(rec.idx), t, rec.blocker)
	}
	return len(c.cuts)
}

// place moves the fragments the coordinator appended to e.active
// (activations, wreckage) to the lane owning the link each head enters
// at step t — its fresh list for this step's collection, or (toAct) its
// walk list for the next step — and marks an entry whose previous link
// is another lane's as a handoff.
func (c *coordinator) place(t int, toAct bool) {
	e := c.e
	for _, f := range e.active {
		lim := max(int(f.lim), 0)
		i := min(max(f.hi(t), 0), lim)
		s := e.laneOfKey(e.slot(int(f.t.links[i])) << e.waveShift)
		f.moved = i > 0 && i == f.hi(t) && i <= int(f.lim) &&
			e.laneOfKey(e.slot(int(f.t.links[i-1]))<<e.waveShift) != s
		if toAct {
			e.lanes[s].act = append(e.lanes[s].act, f)
		} else {
			e.lanes[s].fresh = append(e.lanes[s].fresh, f)
		}
	}
	e.active = e.active[:0]
}

// collectInto collects the step-t entries of src's live fragments on lane
// ln and appends those that stay on the lane to dst (dst may alias src).
//
//optlint:hotpath packed
func (e *Engine) collectInto(ln *lane, dst, src []*fragment, t int) []*fragment {
	for _, f := range src {
		if f.gone {
			continue
		}
		if !e.handOff(ln, f, t, e.collectPacked(ln, f, t)) {
			dst = append(dst, f)
		}
	}
	return dst
}

// handOff counts f's step-t entry as a boundary handoff when it came
// from another lane (entered: the head contended for a slot), then
// passes f to the lane owning the link its head enters at step t+1, if
// that is not ln, and reports whether it did.
//
//optlint:hotpath packed
func (e *Engine) handOff(ln *lane, f *fragment, t int, entered bool) bool {
	if f.moved {
		f.moved = false
		if entered {
			ln.handoffs++
		}
	}
	i := t + 1 - int(f.start) - int(f.jMin)
	if i < 0 || i > int(f.lim) {
		return false
	}
	tr := f.t
	var k int
	if len(tr.waves) == 0 {
		k = int(tr.keys[i]) // precomputed at spawn: no position lookup
	} else {
		k = e.slot(int(tr.links[i])) << e.waveShift
	}
	if ln.owns(k) {
		return false
	}
	d := e.laneOfKey(k)
	f.moved = true
	ln.out[d].hand = append(ln.out[d].hand, f)
	return true
}

// freeInbox frees the slots of lane s that other lanes' tails released.
//
//optlint:hotpath packed
func (e *Engine) freeInbox(s int) {
	ln := &e.lanes[s]
	for src := range e.lanes {
		box := &e.lanes[src].out[s]
		for _, k := range box.rel {
			e.releaseOcc(ln, int(k))
			e.probeReleased(ln, int(k))
		}
		box.rel = box.rel[:0]
	}
}

// sendRelease queues the release of slot k, which is on another lane's
// link, for that lane.
//
//optlint:hotpath packed
func (e *Engine) sendRelease(ln *lane, k int) {
	d := e.laneOfKey(k)
	ln.out[d].rel = append(ln.out[d].rel, int32(k))
}

// laneOfKey returns the lane owning slot key k.
//
//optlint:hotpath packed
func (e *Engine) laneOfKey(k int) int {
	for d := range e.lanes {
		if e.lanes[d].owns(k) {
			return d
		}
	}
	return -1
}
