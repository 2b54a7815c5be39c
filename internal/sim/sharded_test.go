package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// blockOwners is the sim-level stand-in for shardsim.PartitionGraph
// (which cannot be imported here without a cycle): contiguous node-ID
// blocks, with link ownership following the From-node rule.
func blockOwners(g *graph.Graph, shards int) []int32 {
	n := g.NumNodes()
	owner := make([]int32, g.NumLinks())
	for id := range owner {
		owner[id] = int32(int(g.Link(id).From) * shards / n)
	}
	return owner
}

// compareCollisionLogs asserts the recorded collision lists are
// element-wise identical (compareResults only checks the count).
func compareCollisionLogs(t *testing.T, label string, fast, ref *Result) {
	t.Helper()
	if len(fast.Collisions) != len(ref.Collisions) {
		t.Fatalf("%s: collision logs %d vs %d entries", label, len(fast.Collisions), len(ref.Collisions))
	}
	for i := range fast.Collisions {
		if fast.Collisions[i] != ref.Collisions[i] {
			t.Fatalf("%s: collision %d: %+v vs %+v", label, i, fast.Collisions[i], ref.Collisions[i])
		}
	}
}

// TestShardedVsEngineMatrix is the gate of the sharded runner: for every
// shard count, tie policy, conversion predicate, and ack length on the
// fast path, a fixed-seed sharded run must reproduce the single-lane
// engine and the per-flit reference byte for byte, including the
// ordered collision log.
func TestShardedVsEngineMatrix(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	shardedEng := NewEngine()
	refEng := NewEngine()
	sparse := func(n graph.NodeID) bool { return n%2 == 0 }
	conversions := []struct {
		name string
		fn   func(graph.NodeID) bool
	}{
		{"none", nil},
		{"full", FullConversion},
		{"sparse", sparse},
	}
	seed := uint64(31000)
	srByShards := map[int]*ShardedRun{}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		srByShards[shards] = &ShardedRun{Shards: shards, LinkOwner: blockOwners(g, shards)}
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		sr := srByShards[shards]
		for _, tie := range []optical.TiePolicy{optical.TieEliminateAll, optical.TieArbitraryWinner} {
			for _, conv := range conversions {
				for _, ack := range []int{0, 2} {
					for trial := 0; trial < 2; trial++ {
						seed++
						src := rng.New(seed)
						worms := randomWorms(g, src, 24, 4, 8, 2)
						cfg := Config{
							Bandwidth:        2,
							Rule:             optical.ServeFirst,
							Tie:              tie,
							Wreckage:         Drain,
							Conversion:       conv.fn,
							AckLength:        ack,
							RecordCollisions: true,
							CheckInvariants:  true,
						}
						label := fmt.Sprintf("shards=%d/%v/conv=%s/ack=%d/trial=%d",
							shards, tie, conv.name, ack, trial)
						got, err := shardedEng.RunSharded(g, worms, cfg, sr)
						if err != nil {
							t.Fatalf("%s: sharded: %v", label, err)
						}
						// Results are owned by their engine, so snapshot the
						// sharded outcome before running the references.
						shardedCopy := *got
						shardedCopy.Outcomes = append([]Outcome(nil), got.Outcomes...)
						shardedCopy.Collisions = append([]Collision(nil), got.Collisions...)
						packed, err := refEng.Run(g, worms, cfg)
						if err != nil {
							t.Fatalf("%s: packed: %v", label, err)
						}
						compareResults(t, label+"/vs-packed", &shardedCopy, packed)
						compareCollisionLogs(t, label+"/vs-packed", &shardedCopy, packed)
						ref, err := RunReference(g, worms, cfg)
						if err != nil {
							t.Fatalf("%s: reference: %v", label, err)
						}
						compareResults(t, label+"/vs-reference", &shardedCopy, ref)
						compareCollisionLogs(t, label+"/vs-reference", &shardedCopy, ref)
					}
				}
			}
		}
	}
}

// TestShardedFaultMatrix drives random fault plans — link and wavelength
// outages, ack losses, stuck couplers — through the sharded runner and
// pins it against the per-flit reference model, fault kills included.
func TestShardedFaultMatrix(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	shardedEng := NewEngine()
	seed := uint64(42100)
	for _, shards := range []int{2, 4, 8} {
		sr := &ShardedRun{Shards: shards, LinkOwner: blockOwners(g, shards)}
		for _, conv := range []func(graph.NodeID) bool{nil, FullConversion} {
			for trial := 0; trial < 4; trial++ {
				seed++
				src := rng.New(seed)
				worms := randomWorms(g, src, 28, 4, 6, 2)
				plan := faults.MustRandom(g, 2, faults.GenConfig{
					Horizon: 20, LinkOutages: 6, WavelengthOutages: 5,
					AckLosses: 3, StuckCouplers: 2,
					MinDuration: 4, MaxDuration: 14,
				}, src.Split())
				cfg := Config{
					Bandwidth:        2,
					Rule:             optical.ServeFirst,
					Wreckage:         Drain,
					Conversion:       conv,
					AckLength:        2,
					RecordCollisions: true,
					CheckInvariants:  true,
					Faults:           plan.MustCompile(g, 2),
				}
				label := fmt.Sprintf("shards=%d/conv=%v/trial=%d", shards, conv != nil, trial)
				got, err := shardedEng.RunSharded(g, worms, cfg, sr)
				if err != nil {
					t.Fatalf("%s: sharded: %v", label, err)
				}
				shardedCopy := *got
				shardedCopy.Outcomes = append([]Outcome(nil), got.Outcomes...)
				shardedCopy.Collisions = append([]Collision(nil), got.Collisions...)
				ref, err := RunReference(g, worms, cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				compareResults(t, label, &shardedCopy, ref)
				compareCollisionLogs(t, label, &shardedCopy, ref)
				if shardedCopy.FaultKillCount != ref.FaultKillCount {
					t.Fatalf("%s: FaultKillCount %d (sharded) vs %d (reference)",
						label, shardedCopy.FaultKillCount, ref.FaultKillCount)
				}
			}
		}
	}
}

// TestShardedTelemetryMatchesReference: a sharded run feeding a primary
// collector plus per-shard slot collectors must, after Merge, be
// snapshot-identical to a single-engine run feeding one collector.
func TestShardedTelemetryMatchesReference(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	src := rng.New(5150)
	worms := randomWorms(g, src, 24, 4, 8, 2)
	base := Config{
		Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain,
		AckLength: 2, RecordCollisions: true, CheckInvariants: true,
	}

	refCol := telemetry.NewCollector()
	refCfg := base
	refCfg.Probe = refCol
	if _, err := NewEngine().Run(g, worms, refCfg); err != nil {
		t.Fatal(err)
	}

	const shards = 4
	mainCol := telemetry.NewCollector()
	slotCols := make([]*telemetry.Collector, shards)
	slotProbes := make([]telemetry.Probe, shards)
	for s := range slotCols {
		slotCols[s] = telemetry.NewCollector()
		slotCols[s].Provision(g.NumLinks(), base.Bandwidth)
		slotProbes[s] = slotCols[s]
	}
	sr := &ShardedRun{Shards: shards, LinkOwner: blockOwners(g, shards), SlotProbes: slotProbes}
	shCfg := base
	shCfg.Probe = mainCol
	if _, err := NewEngine().RunSharded(g, worms, shCfg, sr); err != nil {
		t.Fatal(err)
	}
	for _, sc := range slotCols {
		mainCol.Merge(sc)
	}

	want, err := json.Marshal(refCol.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(mainCol.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("merged sharded telemetry differs from reference:\nref:    %s\nsharded: %s", want, got)
	}
	if sr.BoundaryHandoffs == 0 {
		t.Fatal("expected cross-shard handoffs on a 4-shard torus workload")
	}
	if sr.BoundaryWords == 0 {
		t.Fatal("expected boundary words to be exchanged")
	}
}

// TestShardedBoundaryCountersDeterministic: boundary statistics are part
// of the deterministic contract — two identical runs produce identical
// counts.
func TestShardedBoundaryCountersDeterministic(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	cfg := Config{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain, AckLength: 1}
	counts := make([][2]uint64, 2)
	for i := range counts {
		src := rng.New(808)
		worms := randomWorms(g, src, 24, 4, 8, 2)
		sr := &ShardedRun{Shards: 4, LinkOwner: blockOwners(g, 4)}
		if _, err := NewEngine().RunSharded(g, worms, cfg, sr); err != nil {
			t.Fatal(err)
		}
		counts[i] = [2]uint64{sr.BoundaryHandoffs, sr.BoundaryWords}
	}
	if counts[0] != counts[1] {
		t.Fatalf("boundary counters not deterministic: %v vs %v", counts[0], counts[1])
	}
	if counts[0][0] == 0 || counts[0][1] == 0 {
		t.Fatalf("expected nonzero boundary traffic, got %v", counts[0])
	}
}

// TestShardedUnsupported pins the fallback contract: configurations
// outside the fast path return ErrShardedUnsupported, and telemetry
// without per-shard probes is rejected.
func TestShardedUnsupported(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	src := rng.New(61)
	worms := randomWorms(g, src, 8, 4, 4, 2)
	sr := &ShardedRun{Shards: 2, LinkOwner: blockOwners(g, 2)}
	eng := NewEngine()

	cfg := Config{Bandwidth: 2, Rule: optical.Priority, Wreckage: Drain}
	if _, err := eng.RunSharded(g, worms, cfg, sr); !errors.Is(err, ErrShardedUnsupported) {
		t.Fatalf("Priority: err = %v, want ErrShardedUnsupported", err)
	}
	cfg = Config{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Vanish}
	if _, err := eng.RunSharded(g, worms, cfg, sr); !errors.Is(err, ErrShardedUnsupported) {
		t.Fatalf("Vanish: err = %v, want ErrShardedUnsupported", err)
	}
	cfg = Config{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain, Probe: telemetry.NewCollector()}
	if _, err := eng.RunSharded(g, worms, cfg, sr); err == nil || errors.Is(err, ErrShardedUnsupported) {
		t.Fatalf("probe without slot probes: err = %v, want a distinct error", err)
	}
	if ShardedSupported(Config{Rule: optical.ServeFirst, Wreckage: Drain}) != true {
		t.Fatal("ServeFirst+Drain must be supported")
	}
	if ShardedSupported(Config{Rule: optical.Priority}) {
		t.Fatal("Priority must not be supported")
	}
}

// TestShardedEngineReuse: a sharded engine reused across runs — and
// across shard counts — stays byte-identical to fresh references.
func TestShardedEngineReuse(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	eng := NewEngine()
	for trial := 0; trial < 6; trial++ {
		shards := []int{1, 2, 4, 8, 2, 4}[trial]
		src := rng.New(uint64(9900 + trial))
		worms := randomWorms(g, src, 20, 4, 8, 2)
		cfg := Config{
			Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: Drain,
			AckLength: 1, RecordCollisions: true, CheckInvariants: true,
		}
		sr := &ShardedRun{Shards: shards, LinkOwner: blockOwners(g, shards)}
		got, err := eng.RunSharded(g, worms, cfg, sr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotCopy := *got
		gotCopy.Outcomes = append([]Outcome(nil), got.Outcomes...)
		gotCopy.Collisions = append([]Collision(nil), got.Collisions...)
		ref, err := Run(g, worms, cfg)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		compareResults(t, fmt.Sprintf("trial %d (shards=%d)", trial, shards), &gotCopy, ref)
		compareCollisionLogs(t, fmt.Sprintf("trial %d", trial), &gotCopy, ref)
	}
}

// TestShardedBarrierWaitParksAndWakes drives the crews' barrier wait past its
// spin budget, so the waiter parks, and checks that rouse wakes it once
// its condition holds, and that a stale wake-up left in the channel only
// costs the next wait a re-check.
func TestShardedBarrierWaitParksAndWakes(t *testing.T) {
	c := coordinator{parked: make([]atomic.Bool, 2), wake: []chan struct{}{nil, make(chan struct{}, 1)}}
	for round := 0; round < 3; round++ {
		var ready atomic.Bool
		done := make(chan struct{})
		go func() {
			c.await(1, ready.Load)
			close(done)
		}()
		for !c.parked[1].Load() {
			runtime.Gosched()
		}
		if round == 1 {
			c.wake[1] <- struct{}{} // stale: the waiter must park again
			for !c.parked[1].Load() {
				runtime.Gosched()
			}
		}
		ready.Store(true)
		c.rouse(1)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: parked waiter was not woken", round)
		}
	}
}
