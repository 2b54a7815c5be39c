package sim

import "fmt"

// calendar is the engine's time-bucketed spawn agenda: bucket t holds the
// trains that start at step t. Buckets are indexed by absolute
// step and recycled across runs (lengths reset, capacity kept), replacing
// the step->fragments hash map plus linear key scan of the original
// implementation with O(1) insertion and an O(gap) forward scan that only
// runs when the network is idle.
type calendar struct {
	buckets [][]*train
	pending int
}

// reset empties every bucket, keeping capacity for reuse.
//
//optlint:hotpath
func (c *calendar) reset() {
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	c.pending = 0
}

// add schedules train tr to activate at step t >= 0.
//
//optlint:hotpath
func (c *calendar) add(t int, tr *train) {
	for len(c.buckets) <= t {
		c.buckets = append(c.buckets, nil)
	}
	c.buckets[t] = append(c.buckets[t], tr)
	c.pending++
}

// takeInto gives every train spawning at step t its whole-train fragment,
// appends the fragments to dst in bucket order, empties the bucket, and
// returns the extended slice. Allocating the fragment at activation, not
// at scheduling, keeps fragment arena indices in active-list order: a
// fragment joins the active list when it is allocated (here or in a
// split), so ascending fragment.self is the single engine's active order.
//
//optlint:hotpath
func (c *calendar) takeInto(t int, dst []*fragment, a *arena) []*fragment {
	if t < 0 || t >= len(c.buckets) || len(c.buckets[t]) == 0 {
		return dst
	}
	trs := c.buckets[t]
	for _, tr := range trs {
		dst = append(dst, a.newFrag(tr, 0, tr.length-1, len(tr.links), 0))
	}
	c.pending -= len(trs)
	c.buckets[t] = trs[:0]
	return dst
}

// next returns the smallest spawn step >= t, scanning forward from t.
//
//optlint:hotpath
func (c *calendar) next(t int) (int, bool) {
	if c.pending == 0 {
		return 0, false
	}
	if t < 0 {
		t = 0
	}
	for s := t; s < len(c.buckets); s++ {
		if len(c.buckets[s]) > 0 {
			return s, true
		}
	}
	return 0, false
}

// nextSpawnTime returns the smallest spawn step >= t, or t itself when
// nothing is pending. Pending fragments with no spawn step >= t mean the
// agenda is corrupted: the run would otherwise spin silently until the
// MaxSteps bug guard fired with a misleading message, so that state is
// reported as a distinct internal-inconsistency error immediately.
func (c *calendar) nextSpawnTime(t int) (int, error) {
	if c.pending == 0 {
		return t, nil
	}
	if s, ok := c.next(t); ok {
		return s, nil
	}
	return 0, fmt.Errorf("sim: internal inconsistency: %d pending spawn(s) but none scheduled at or after step %d", c.pending, t)
}
