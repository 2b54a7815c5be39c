package jobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// scriptStep is one ClaimLocal call of a scriptedSession: the remote
// batches that arrive just before it, then the trial it hands to the
// owner (-1: none, so the owner waits for a batch).
type scriptStep struct {
	batches []RemoteBatch
	local   int
}

// scriptedSession is a TrialSession that replays a fixed script, so the
// sweep loop's fold meets every delivery order deterministically —
// without the timing of a real cluster.
type scriptedSession struct {
	steps     []scriptStep
	completed chan RemoteBatch
	closed    bool
}

// ClaimLocal implements TrialSession by playing the next script step.
func (s *scriptedSession) ClaimLocal() (int, bool) {
	if len(s.steps) == 0 {
		return 0, false
	}
	st := s.steps[0]
	s.steps = s.steps[1:]
	for _, b := range st.batches {
		s.completed <- b
	}
	return st.local, st.local >= 0
}

// Completed implements TrialSession.
func (s *scriptedSession) Completed() <-chan RemoteBatch { return s.completed }

// Close implements TrialSession.
func (s *scriptedSession) Close() { s.closed = true }

// scriptedDistributor hands every sweep the one scripted session.
type scriptedDistributor struct {
	sess         *scriptedSession
	start, total int
}

// Distribute implements TrialDistributor.
func (d *scriptedDistributor) Distribute(key string, spec Spec, start, total int) TrialSession {
	d.start, d.total = start, total
	return d.sess
}

// recordedRun runs spec to completion on a fresh store and returns the
// result bytes, every record the run appended (key and value, in
// order), and the live telemetry it published. Live absorbs trials in
// arrival order, so the retained per-round list is left out of it.
func recordedRun(t *testing.T, spec Spec, dist TrialDistributor) (result []byte, records []string, live []byte) {
	t.Helper()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Observer = func(key string, value json.RawMessage) {
		records = append(records, key+" "+string(value))
	}
	l := telemetry.NewLive()
	exec := &Executor{Store: store, Live: l}
	if dist != nil {
		exec.Distribute = dist
	}
	res, _, err := exec.Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	snap.Rounds = nil
	live, err = json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res), records, live
}

// TestSweepOrderedFoldDeterministic drives a route sweep through a
// scripted TrialSession whose remote batches come from RunTrialRange and
// reach the owner out of order, twice, below the fold pointer, with
// out-of-range trial indices and as empty wake-ups, while one trial is
// withheld and only later handed back through ClaimLocal. The result
// and the full sequence of checkpoint records must match a run with no
// distributor byte for byte.
func TestSweepOrderedFoldDeterministic(t *testing.T) {
	const trials = 8
	spec := testSpec(4242, trials)
	wantResult, wantRecords, wantLive := recordedRun(t, spec, nil)

	outs, err := RunTrialRange(spec, sim.NewEngine(), 0, trials)
	if err != nil {
		t.Fatal(err)
	}
	// batch ships the given trials' outcomes through JSON, as a thief's
	// completion post does.
	batch := func(trials ...int) RemoteBatch {
		var b RemoteBatch
		for _, i := range trials {
			out := outs[0]
			if i >= 0 && i < len(outs) {
				out = outs[i]
			}
			raw, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			var copied TrialOutcome
			if err := json.Unmarshal(raw, &copied); err != nil {
				t.Fatal(err)
			}
			copied.Summary.Trial = i
			b.Outcomes = append(b.Outcomes, copied)
		}
		return b
	}
	sess := &scriptedSession{
		completed: make(chan RemoteBatch, 4), // the most batches any one step queues
		steps: []scriptStep{
			{batches: []RemoteBatch{batch(7, 6)}, local: 0},                     // out of order
			{batches: []RemoteBatch{{}, batch(6, 7)}, local: 1},                 // wake-up, duplicate of pending
			{batches: []RemoteBatch{batch(0, 1), batch(trials, 100)}, local: 2}, // below the pointer, out of range
			{batches: []RemoteBatch{batch(5, 4)}, local: -1},                    // trial 3 withheld
			{batches: []RemoteBatch{{}}, local: -1},                             // wake-up while blocked
			{local: 3},                                                          // withheld trial comes back
		},
	}
	dist := &scriptedDistributor{sess: sess}
	gotResult, gotRecords, gotLive := recordedRun(t, spec, dist)

	if dist.start != 0 || dist.total != trials {
		t.Errorf("Distribute(start=%d, total=%d), want (0, %d)", dist.start, dist.total, trials)
	}
	if len(sess.steps) != 0 || !sess.closed {
		t.Errorf("session left %d script steps, closed=%v; want all played and closed", len(sess.steps), sess.closed)
	}
	if !bytes.Equal(gotResult, wantResult) {
		t.Errorf("distributed result differs:\n got %s\nwant %s", gotResult, wantResult)
	}
	// Every trial reaches the live aggregate exactly once: duplicates and
	// stale or out-of-range outcomes are dropped before it.
	if !bytes.Equal(gotLive, wantLive) {
		t.Errorf("live telemetry differs:\n got %s\nwant %s", gotLive, wantLive)
	}
	if len(gotRecords) != len(wantRecords) {
		t.Fatalf("distributed run appended %d records, local run %d", len(gotRecords), len(wantRecords))
	}
	for i := range wantRecords {
		if gotRecords[i] != wantRecords[i] {
			t.Errorf("record %d differs:\n got %s\nwant %s", i, gotRecords[i], wantRecords[i])
		}
	}
}
