package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
// reused for repeated runs on one topology: the worker scratch stored
// inside it makes steady-state sharded rounds allocation-free.
type ShardedRun struct {
	// Shards is the number of lockstep workers N. One goroutine per
	// shard advances the partition's fragments and resolves conflicts on
	// the shard's own links; N=1 runs the same protocol inline.
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
	// set; may be nil otherwise.
	SlotProbes []telemetry.Probe
	// BoundaryHandoffs counts worm heads that crossed from one shard's
	// links onto another's; BoundaryWords counts the packed occupancy
	// words covering boundary links that the lockstep exchange ships per
	// step (every step ships the full boundary image). Both accumulate
	// across runs; the caller reads and resets them.
	BoundaryHandoffs uint64
	BoundaryWords    uint64

	ws       []shardWorker // per-shard scratch, reused across runs
	wordMark []uint64      // bitset over occBits word indices (boundary-word count)
	cutIdx   []int         // per-worker cursor scratch for the cut merge
}

// shardKill is a fault-killed entrant recorded during parallel entry
// collection and applied by the coordinator in active-list order.
type shardKill struct {
	f   *fragment
	idx int32
}

// shardCut is a lost entrant recorded during parallel conflict
// resolution. key is the contested slot key: worker lists are ordered by
// it, and the coordinator merges the per-shard lists back into the
// global ascending-key order the single-engine reference cuts in.
type shardCut struct {
	f       *fragment
	blocker *train
	key     int32
	idx     int32
}

// shardWorker is the per-shard scratch of one lockstep worker.
type shardWorker struct {
	released    []int32       // phase 1: slot keys freed by tail releases (probe replay)
	completions []*fragment   // phase 1: fragments that fully drained
	ent         [][]entry     // phase 3: collected entrants, routed per owning shard
	kills       []shardKill   // phase 3: fault-killed entrants, in active order
	my          []entry       // phase 4: this shard's entrants, sorted by (key, id)
	lv          []entry       // phase 4: per-group scratch after chain resolution
	pend        []shardConv   // phase 4b: deferred wavelength-conversion attempts
	cuts        []shardCut    // phase 4: lost entrants, ascending key
	convCuts    []shardCut    // phase 4b: failed conversions, ascending loss key
	dOcc, dMsg  int           // occupancy-count deltas from atomic bit edits
	handoffs    uint64        // heads entering a link owned by a different shard
	slotProbe   telemetry.Probe
}

// shardConv is a deferred conversion attempt; key is the slot key of the
// lost conflict (the ordering key should the attempt fail too).
type shardConv struct {
	f       *fragment
	blocker *train
	key     int32
	idx     int32
}

// shardCmd dispatches one parallel phase to a worker goroutine.
type shardCmd struct {
	phase int32
	t     int
}

const (
	shardPhaseRelease = iota // fragment-partitioned: tail releases
	shardPhaseCollect        // fragment-partitioned: entry collection
	shardPhaseResolve        // link-sharded: conflict resolution + conversion
)

// shardedState is the per-run lockstep machine: the coordinator (the
// RunSharded caller, doubling as worker 0) alternates parallel worker
// sections with serial merge sections, with every section boundary a
// full barrier, so one deterministic clock advances all shards together.
type shardedState struct {
	e        *Engine
	sr       *ShardedRun
	shards   int
	owner    []int32
	ws       []shardWorker
	cmd      []chan shardCmd
	done     chan struct{}
	probes   bool
	cutWords uint64
}

// atomicOr64 sets mask's bits in *p. sync/atomic grows Or/And on uint64
// only in go 1.23; this module targets 1.22, so both helpers are CAS
// loops. Contention is rare — only slots of different shards sharing one
// 64-slot word ever collide — so the loop almost always succeeds first
// try.
func atomicOr64(p *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old|mask) {
			return
		}
	}
}

// atomicAnd64 clears the bits absent from mask in *p.
func atomicAnd64(p *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old&mask) {
			return
		}
	}
}

// shardProbeRouter splits the engine's probe stream for a sharded run:
// slot claim/release events are delivered to the owning shard's probe
// (each link's event stream stays within one collector, keeping the
// per-link busy integral exact) and every other event goes to the
// primary probe. Only the coordinator drives it; workers emit their slot
// events directly to their own shard's probe.
type shardProbeRouter struct {
	main  telemetry.Probe
	slots []telemetry.Probe
	owner []int32
}

// BeginRun forwards run metadata to the primary probe.
func (r *shardProbeRouter) BeginRun(meta telemetry.RunMeta) {
	if r.main != nil {
		r.main.BeginRun(meta)
	}
}

// StepAdvanced forwards the per-step busy totals to the primary probe.
func (r *shardProbeRouter) StepAdvanced(t, msgBusy, ackBusy int) {
	if r.main != nil {
		r.main.StepAdvanced(t, msgBusy, ackBusy)
	}
}

// SlotClaimed routes a claim to the owning shard's probe.
func (r *shardProbeRouter) SlotClaimed(t, band, link, wavelength int) {
	r.slots[r.owner[link]].SlotClaimed(t, band, link, wavelength)
}

// SlotReleased routes a release to the owning shard's probe.
func (r *shardProbeRouter) SlotReleased(t, band, link, wavelength int) {
	r.slots[r.owner[link]].SlotReleased(t, band, link, wavelength)
}

// WormCut forwards a contention loss to the primary probe.
func (r *shardProbeRouter) WormCut(t, band, link, wavelength, worm int, isAck bool) {
	if r.main != nil {
		r.main.WormCut(t, band, link, wavelength, worm, isAck)
	}
}

// FragmentSplit forwards a wreckage split to the primary probe.
func (r *shardProbeRouter) FragmentSplit(t, worm int) {
	if r.main != nil {
		r.main.FragmentSplit(t, worm)
	}
}

// WormDelivered forwards a delivery to the primary probe.
func (r *shardProbeRouter) WormDelivered(t, worm, pathLen, residence int) {
	if r.main != nil {
		r.main.WormDelivered(t, worm, pathLen, residence)
	}
}

// AckCompleted forwards an acknowledgement to the primary probe.
func (r *shardProbeRouter) AckCompleted(t, worm, residence int) {
	if r.main != nil {
		r.main.AckCompleted(t, worm, residence)
	}
}

// FaultStarted forwards a fault activation to the primary probe.
func (r *shardProbeRouter) FaultStarted(t, kind, target int) {
	if r.main != nil {
		r.main.FaultStarted(t, kind, target)
	}
}

// FaultEnded forwards a fault repair to the primary probe.
func (r *shardProbeRouter) FaultEnded(t, kind, target int) {
	if r.main != nil {
		r.main.FaultEnded(t, kind, target)
	}
}

// WormKilledByFault forwards a fault kill to the primary probe.
func (r *shardProbeRouter) WormKilledByFault(t, band, link, worm int, isAck bool) {
	if r.main != nil {
		r.main.WormKilledByFault(t, band, link, worm, isAck)
	}
}

// EndRun forwards the final makespan to the primary probe.
func (r *shardProbeRouter) EndRun(makespan int) {
	if r.main != nil {
		r.main.EndRun(makespan)
	}
}

// RoundStarted forwards a protocol-round start to the primary probe.
func (r *shardProbeRouter) RoundStarted(round, delayRange, active int) {
	if r.main != nil {
		r.main.RoundStarted(round, delayRange, active)
	}
}

// RoundFinished forwards a protocol-round summary to the primary probe.
func (r *shardProbeRouter) RoundFinished(info telemetry.RoundInfo) {
	if r.main != nil {
		r.main.RoundFinished(info)
	}
}

// RunSharded simulates one round exactly like Run, but advances the
// fragments of N shards in parallel under one lockstep clock. The shard
// layout comes from sr (see shardsim.PartitionGraph); results — Result
// bytes, probe-visible counters, and collision lists — are identical to
// a single-engine Run of the same inputs.
//
// Per step the shards run three parallel sections with barriers between
// them: tail releases (fragment-partitioned; occupancy bits are cleared
// with atomic word edits because neighboring shards' slots share words),
// entry collection (fragment-partitioned; each entrant is routed to the
// shard owning its entered link, counting cross-shard handoffs), and
// conflict resolution plus wavelength conversion (link-sharded; each
// shard sorts and resolves only its own links' conflict groups, claiming
// slots directly and recording losers). Between sections the
// coordinator replays the serial parts of the reference step — ack
// spawns, fault events, activations, and the losers' fragment splits —
// in the single-engine order: completions in active-list order, fault
// kills in active-list order, cuts merged back into ascending slot-key
// order. Under ServeFirst and Drain those deferred splits free no
// occupancy (the wreckage inherits every claimed slot), which is what
// makes the frozen-occupancy parallel resolution exact; see
// ShardedSupported.
//
// cfg.Conversion, when set, is called concurrently from worker
// goroutines and must be a pure function of the node ID. The returned
// error is ErrShardedUnsupported when cfg is outside the fast path.
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
	if (cfg.Probe != nil || sr.SlotProbes != nil) && len(sr.SlotProbes) != sr.Shards {
		return nil, fmt.Errorf("sim: sharded run with telemetry needs one slot probe per shard (have %d, want %d)",
			len(sr.SlotProbes), sr.Shards)
	}
	if err := e.val.check(g, worms, cfg); err != nil {
		return nil, err
	}
	runCfg := cfg
	if sr.SlotProbes != nil {
		runCfg.Probe = &shardProbeRouter{main: cfg.Probe, slots: sr.SlotProbes, owner: sr.LinkOwner}
	}
	e.begin(g, runCfg, len(worms))
	maxSteps := e.spawnWorms(worms, cfg)

	st := newShardedState(e, sr)
	defer st.close()
	st.cutWords = sr.countCutWords(e, g)

	t, err := e.cal.nextSpawnTime(0)
	if err != nil {
		return nil, err
	}
	steps := 0
	for e.cal.pending > 0 || len(e.active) > 0 {
		if steps++; steps > maxSteps {
			e.occClean = 0
			return nil, fmt.Errorf("sim: exceeded %d steps (internal bug guard)", maxSteps)
		}
		if len(e.active) == 0 {
			if t, err = e.cal.nextSpawnTime(t); err != nil {
				e.occClean = 0
				return nil, err
			}
		}
		st.step(t)
		if cfg.CheckInvariants {
			if err := e.checkInvariants(t); err != nil {
				e.occClean = 0
				return nil, err
			}
		}
		t++
	}
	if e.occCount == 0 && len(e.occ) > e.occClean {
		e.occClean = len(e.occ)
	}
	for _, o := range e.res.Outcomes {
		if o.Delivered {
			e.res.DeliveredCount++
		}
		if o.Acked {
			e.res.AckedCount++
		}
	}
	for w := range st.ws {
		sr.BoundaryHandoffs += st.ws[w].handoffs
		st.ws[w].handoffs = 0
	}
	if e.probe != nil {
		e.probe.EndRun(e.res.Makespan)
	}
	return &e.res, nil
}

// newShardedState builds the lockstep machine for one run, reusing the
// worker scratch cached in sr and spawning shards-1 worker goroutines
// (the coordinator doubles as worker 0; N=1 spawns none).
func newShardedState(e *Engine, sr *ShardedRun) *shardedState {
	if len(sr.ws) < sr.Shards {
		sr.ws = make([]shardWorker, sr.Shards)
	}
	st := &shardedState{
		e:      e,
		sr:     sr,
		shards: sr.Shards,
		owner:  sr.LinkOwner,
		ws:     sr.ws[:sr.Shards],
		probes: e.probe != nil,
	}
	for w := range st.ws {
		ws := &st.ws[w]
		if len(ws.ent) < st.shards {
			ws.ent = make([][]entry, st.shards)
		} else {
			ws.ent = ws.ent[:st.shards]
		}
		if sr.SlotProbes != nil {
			ws.slotProbe = sr.SlotProbes[w]
		} else {
			ws.slotProbe = nil
		}
		ws.handoffs = 0
		ws.dOcc, ws.dMsg = 0, 0
	}
	if st.shards > 1 {
		st.cmd = make([]chan shardCmd, st.shards)
		st.done = make(chan struct{}, st.shards)
		for w := 1; w < st.shards; w++ {
			st.cmd[w] = make(chan shardCmd, 1)
			go func(w int) {
				for c := range st.cmd[w] {
					st.runWorker(w, c.phase, c.t)
					st.done <- struct{}{}
				}
			}(w)
		}
	}
	return st
}

// close shuts the worker goroutines down.
func (st *shardedState) close() {
	for w := 1; w < len(st.cmd); w++ {
		close(st.cmd[w])
	}
}

// parallel runs one phase on all shards and waits for every worker: a
// full barrier, which is also what publishes the coordinator's plain
// writes to the workers and the workers' writes back.
func (st *shardedState) parallel(phase int32, t int) {
	for w := 1; w < st.shards; w++ {
		st.cmd[w] <- shardCmd{phase: phase, t: t}
	}
	st.runWorker(0, phase, t)
	for w := 1; w < st.shards; w++ {
		<-st.done
	}
}

func (st *shardedState) runWorker(w int, phase int32, t int) {
	switch phase {
	case shardPhaseRelease:
		st.releasePhase(w, t)
	case shardPhaseCollect:
		st.collectPhase(w, t)
	case shardPhaseResolve:
		st.resolvePhase(w, t)
	}
}

// step advances one lockstep step, mirroring stepFlat phase for phase.
func (st *shardedState) step(t int) {
	e := st.e
	e.now = t

	// 1. Tail releases, fragment-partitioned across shards. Completions
	// are detected here but applied below, in active-list order.
	st.parallel(shardPhaseRelease, t)

	// Serial interlude: ack spawns from completed deliveries (the
	// reference runs complete inline during the release walk; nothing a
	// completion does touches occupancy, so batching is equivalent as
	// long as the order matches), then fault events, then activations —
	// the same order as stepFlat phases 1–2.
	for w := range st.ws {
		ws := &st.ws[w]
		for _, f := range ws.completions {
			e.complete(f, t)
		}
		ws.completions = ws.completions[:0]
	}
	if e.flt != nil {
		e.advanceFaults(t)
	}
	e.active = e.cal.takeInto(t, e.active)

	// 3. Entry collection, fragment-partitioned; entrants are routed to
	// the shard owning the entered link.
	st.parallel(shardPhaseCollect, t)

	// 4 + 4b. Conflict resolution and wavelength conversion,
	// link-sharded: every contested slot key belongs to exactly one
	// shard, so the shards resolve disjoint key sets against the frozen
	// occupancy image.
	st.parallel(shardPhaseResolve, t)

	// Serial epilogue: fold the workers' occupancy-count deltas, then
	// replay the deferred terminal events in the reference order —
	// fault kills in active order (stepFlat kills during collection),
	// then contention cuts and failed conversions in ascending slot-key
	// order (stepFlat cuts during resolution). Under Drain none of these
	// splits frees a slot, so replaying them after the parallel sections
	// cannot change what any shard observed.
	for w := range st.ws {
		ws := &st.ws[w]
		e.occCount += ws.dOcc
		e.occMsg += ws.dMsg
		ws.dOcc, ws.dMsg = 0, 0
	}
	for w := range st.ws {
		ws := &st.ws[w]
		for _, kl := range ws.kills {
			e.faultKillEntrant(kl.f, int(kl.idx), t)
		}
		ws.kills = ws.kills[:0]
	}
	st.applyCuts(t, false)
	st.applyCuts(t, true)
	st.sr.BoundaryWords += st.cutWords

	// 5. Compact the active list and account, as stepFlat does.
	liveActive := e.active[:0]
	for _, f := range e.active {
		if !f.gone {
			liveActive = append(liveActive, f)
		}
	}
	e.active = liveActive
	e.res.BusySlotSteps += e.occCount
	e.res.MessageBusySlotSteps += e.occMsg
	e.res.AckBusySlotSteps += e.occCount - e.occMsg
	if e.probe != nil {
		e.probe.StepAdvanced(t, e.occMsg, e.occCount-e.occMsg)
	}
	e.res.Makespan = t
}

// applyCuts merges the workers' per-shard cut lists — each already in
// ascending slot-key order, with disjoint key sets — back into global
// key order and applies them. conv selects the failed-conversion lists
// (replayed after all contention cuts, as in the reference 4b).
func (st *shardedState) applyCuts(t int, conv bool) {
	e := st.e
	if cap(st.sr.cutIdx) < st.shards {
		st.sr.cutIdx = make([]int, st.shards)
	}
	idx := st.sr.cutIdx[:st.shards]
	for w := range idx {
		idx[w] = 0
	}
	for {
		best := -1
		var bestKey int32
		for w := range st.ws {
			l := st.ws[w].cuts
			if conv {
				l = st.ws[w].convCuts
			}
			if idx[w] < len(l) {
				if k := l[idx[w]].key; best < 0 || k < bestKey {
					best, bestKey = w, k
				}
			}
		}
		if best < 0 {
			break
		}
		l := st.ws[best].cuts
		if conv {
			l = st.ws[best].convCuts
		}
		rec := l[idx[best]]
		idx[best]++
		e.cutEntrant(rec.f, int(rec.idx), t, rec.blocker)
	}
	for w := range st.ws {
		if conv {
			st.ws[w].convCuts = st.ws[w].convCuts[:0]
		} else {
			st.ws[w].cuts = st.ws[w].cuts[:0]
		}
	}
}

// releasePhase is the parallel mirror of the stepFlat release walk over
// this worker's contiguous chunk of the active list. Bits are cleared
// with atomic edits (slots of different shards share words); count
// deltas and probe events are buffered, and completions deferred so the
// coordinator can apply them in the reference order.
func (st *shardedState) releasePhase(w, t int) {
	e := st.e
	ws := &st.ws[w]
	ws.released = ws.released[:0]
	lo := w * len(e.active) / st.shards
	hi := (w + 1) * len(e.active) / st.shards
	for _, f := range e.active[lo:hi] {
		if f.gone {
			continue
		}
		limit := int(f.lim)
		flo := f.lo(t)
		upTo := flo
		if upTo > limit+1 {
			upTo = limit + 1
		}
		if upTo > int(f.relUpTo) {
			keys := f.t.keys
			for i := int(f.relUpTo); i < upTo; i++ {
				k := int(keys[i])
				atomicAnd64(&e.occBits[k>>e.wordShift], ^(uint64(1) << uint(k&e.wordMask)))
				ws.dOcc--
				if k < e.msgSlots {
					ws.dMsg--
				}
				if st.probes {
					ws.released = append(ws.released, keys[i])
				}
			}
			f.relUpTo = int32(upTo)
		}
		if flo > limit {
			f.gone = true
			ws.completions = append(ws.completions, f)
		}
	}
}

// collectPhase is the parallel mirror of the stepFlat entry collection
// over this worker's chunk: heads entering a new link are routed to the
// shard owning that link, fault-killed heads are recorded for the
// coordinator, and cross-shard handoffs are counted. No occupancy
// changes in this phase, so reads need no atomics (the phase barrier
// orders them against the release phase's writes).
func (st *shardedState) collectPhase(w, t int) {
	e := st.e
	ws := &st.ws[w]
	for s := range ws.ent {
		ws.ent[s] = ws.ent[s][:0]
	}
	lo := w * len(e.active) / st.shards
	hi := (w + 1) * len(e.active) / st.shards
	for _, f := range e.active[lo:hi] {
		if f.gone {
			continue
		}
		i := f.hi(t)
		if i < 0 || i > int(f.lim) {
			continue
		}
		k := e.fragKey(f, i)
		f.t.keys[i] = int32(k)
		if fl := e.flt; fl != nil {
			link := f.t.links[i]
			if fl.linkDark[link] > 0 || (f.t.isAck && fl.ackLoss[link] > 0) ||
				fl.slotDark[k] > 0 {
				ws.kills = append(ws.kills, shardKill{f: f, idx: int32(i)})
				continue
			}
			// Same self-re-entry guard as the reference paths: a drain
			// remnant of a fault kill re-entering a slot it already owns
			// is continuous occupancy, not a fresh contention.
			if e.occBits[k>>e.wordShift]&(1<<uint(k&e.wordMask)) != 0 && e.occ[k].fi == f.self {
				continue
			}
		}
		tgt := st.owner[f.t.links[i]]
		if i > 0 && st.owner[f.t.links[i-1]] != tgt {
			ws.handoffs++
		}
		ws.ent[tgt] = append(ws.ent[tgt], entry{key: k, f: f, idx: i})
	}
}

// resolvePhase runs conflict resolution and wavelength conversion for
// the links shard w owns. It first replays the release phase's buffered
// slot events for this shard into its probe (worker chunk order is
// active-list order, and a collector's per-link integral is insensitive
// to same-step reordering), then gathers the entrants every worker
// routed here, sorts them by (key, id) exactly like the reference, and
// resolves group by group. Winners claim immediately — an atomic bit
// set plus a plain occupant write no other shard touches — while losers
// are recorded for the coordinator's ordered replay.
func (st *shardedState) resolvePhase(w, t int) {
	e := st.e
	ws := &st.ws[w]
	if st.probes {
		for x := range st.ws {
			for _, k32 := range st.ws[x].released {
				k := int(k32)
				band, link, wave := e.slotCoords(k)
				if int(st.owner[link]) != w {
					continue
				}
				ws.slotProbe.SlotReleased(t, band, link, wave)
			}
		}
	}
	ws.my = ws.my[:0]
	for x := range st.ws {
		ws.my = append(ws.my, st.ws[x].ent[w]...)
	}
	slices.SortFunc(ws.my, func(a, b entry) int {
		if a.key != b.key {
			return a.key - b.key
		}
		return a.f.t.id - b.f.t.id
	})
	ws.pend = ws.pend[:0]
	list := ws.my
	for gi := 0; gi < len(list); {
		k := list[gi].key
		gj := gi + 1
		for gj < len(list) && list[gj].key == k {
			gj++
		}
		raw := list[gi:gj]
		gi = gj
		ws.lv = ws.lv[:0]
		for _, en := range raw {
			f := en.f
			for f != nil && f.gone {
				f = f.headChild
			}
			if f == nil || en.idx > int(f.lim) {
				continue
			}
			ws.lv = append(ws.lv, entry{key: k, f: f, idx: en.idx})
		}
		live := ws.lv
		if len(live) == 0 {
			continue
		}
		var incT *train
		hasInc := atomic.LoadUint64(&e.occBits[k>>e.wordShift])&(1<<uint(k&e.wordMask)) != 0
		if hasInc {
			// The occupant entry may still name a fragment that a deferred
			// kill will split after this phase; the wreckage keeps the
			// train, and only the train identifies the blocker.
			incT = e.fragAt(e.occ[k].fi).t
		}
		if fl := e.flt; fl != nil && fl.nStuck > 0 &&
			fl.stuck[e.g.Link(int(live[0].f.t.links[live[0].idx])).From] > 0 {
			if hasInc {
				for _, en := range live {
					ws.cuts = append(ws.cuts, shardCut{f: en.f, blocker: incT, key: int32(k), idx: int32(en.idx)})
				}
			} else {
				win := live[0]
				st.claim(ws, t, k, win.f, win.idx)
				for _, en := range live[1:] {
					ws.cuts = append(ws.cuts, shardCut{f: en.f, blocker: win.f.t, key: int32(k), idx: int32(en.idx)})
				}
			}
			continue
		}
		// ServeFirst is the only rule on the sharded fast path.
		if hasInc {
			for _, en := range live {
				st.lose(ws, k, en, incT)
			}
			continue
		}
		if len(live) == 1 {
			st.claim(ws, t, k, live[0].f, live[0].idx)
			continue
		}
		switch e.cfg.Tie {
		case optical.TieEliminateAll:
			for x, en := range live {
				st.lose(ws, k, en, live[(x+1)%len(live)].f.t)
			}
		case optical.TieArbitraryWinner:
			win := live[0] // smallest worm ID after sorting
			st.claim(ws, t, k, win.f, win.idx)
			for _, en := range live[1:] {
				st.lose(ws, k, en, win.f.t)
			}
		}
	}
	// 4b. Deferred conversion attempts, in deferral (ascending loss-key)
	// order. A conversion only scans and claims slots of its own entry
	// link, which this shard owns, so the per-shard replay is the global
	// replay restricted to this shard's keys.
	for _, ca := range ws.pend {
		f := ca.f
		for f != nil && f.gone {
			f = f.headChild
		}
		if f == nil || ca.idx > f.lim {
			continue
		}
		idx := int(ca.idx)
		cur := e.waveAt(f.t, idx)
		converted := false
		for d := 1; d < e.cfg.Bandwidth; d++ {
			wv := (cur + d) % e.cfg.Bandwidth
			k := e.key(f.t.band, int(f.t.links[idx]), wv)
			if atomic.LoadUint64(&e.occBits[k>>e.wordShift])&(1<<uint(k&e.wordMask)) == 0 &&
				(e.flt == nil || e.flt.slotDark[k] == 0) {
				f.t.waves[idx] = wv
				f.t.keys[idx] = int32(k)
				st.claim(ws, t, k, f, idx)
				converted = true
				break
			}
		}
		if !converted {
			ws.convCuts = append(ws.convCuts, shardCut{f: f, blocker: ca.blocker, key: ca.key, idx: ca.idx})
		}
	}
}

// lose mirrors loseEntrant with deferred effects: conversion-capable
// losers queue a conversion attempt, the rest a cut record.
func (st *shardedState) lose(ws *shardWorker, k int, en entry, blocker *train) {
	e := st.e
	if e.cfg.Conversion != nil && e.cfg.Bandwidth > 1 &&
		e.cfg.Conversion(e.g.Link(int(en.f.t.links[en.idx])).From) {
		ws.pend = append(ws.pend, shardConv{f: en.f, blocker: blocker, key: int32(k), idx: int32(en.idx)})
		return
	}
	ws.cuts = append(ws.cuts, shardCut{f: en.f, blocker: blocker, key: int32(k), idx: int32(en.idx)})
}

// claim mirrors setOcc for a worker: ServeFirst winners only ever claim
// free slots, so the bit transition is always 0→1 and the count deltas
// are unconditional. The occupant entry is a plain write — resolution
// keys are partitioned by shard, so no other worker touches occ[k].
func (st *shardedState) claim(ws *shardWorker, t, k int, f *fragment, idx int) {
	e := st.e
	atomicOr64(&e.occBits[k>>e.wordShift], uint64(1)<<uint(k&e.wordMask))
	ws.dOcc++
	if k < e.msgSlots {
		ws.dMsg++
	}
	e.occ[k] = occupant{fi: f.self, idx: int32(idx)}
	if st.probes {
		band, link, wave := e.slotCoords(k)
		ws.slotProbe.SlotClaimed(t, band, link, wave)
	}
}

// countCutWords counts the distinct occupancy words covering slots of
// boundary links (both bands): the packed image a message-passing
// implementation would exchange per step.
func (sr *ShardedRun) countCutWords(e *Engine, g *graph.Graph) uint64 {
	nWords := (2*e.msgSlots + 63) >> 6
	nMark := (nWords + 63) >> 6
	if cap(sr.wordMark) < nMark {
		sr.wordMark = make([]uint64, nMark)
	} else {
		sr.wordMark = sr.wordMark[:nMark]
		clear(sr.wordMark)
	}
	stride := 1 << e.waveShift
	for id := 0; id < e.nLinks; id++ {
		if sr.LinkOwner[id] == sr.LinkOwner[g.Reverse(id)] {
			continue
		}
		for band := 0; band < 2; band++ {
			base := (band*e.nLinks + id) << e.waveShift
			for wi := base >> 6; wi <= (base+stride-1)>>6; wi++ {
				sr.wordMark[wi>>6] |= 1 << uint(wi&63)
			}
		}
	}
	total := uint64(0)
	for _, m := range sr.wordMark {
		total += uint64(bits.OnesCount64(m))
	}
	return total
}
