package shardsim

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// randomWorms mirrors the sim package's test generator: random simple
// shortest paths with random wavelengths, delays, and a rank permutation.
func randomWorms(g *graph.Graph, src *rng.Source, count, maxLen, maxDelay, bandwidth int) []sim.Worm {
	n := g.NumNodes()
	var worms []sim.Worm
	ranks := src.Perm(count)
	for id := 0; id < count; id++ {
		s := src.Intn(n)
		d := src.Intn(n)
		if s == d {
			continue
		}
		p := g.ShortestPath(graph.NodeID(s), graph.NodeID(d))
		if p == nil {
			continue
		}
		worms = append(worms, sim.Worm{
			ID:         id,
			Path:       p,
			Length:     1 + src.Intn(maxLen),
			Delay:      src.Intn(maxDelay + 1),
			Wavelength: src.Intn(bandwidth),
			Rank:       ranks[id],
		})
	}
	return worms
}

func compareRuns(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: outcome counts %d vs %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	for i := range got.Outcomes {
		if got.Outcomes[i] != want.Outcomes[i] {
			t.Fatalf("%s: outcome %d: %+v vs %+v", label, i, got.Outcomes[i], want.Outcomes[i])
		}
	}
	if got.CollisionCount != want.CollisionCount || got.Makespan != want.Makespan ||
		got.DeliveredCount != want.DeliveredCount || got.AckedCount != want.AckedCount ||
		got.FaultKillCount != want.FaultKillCount {
		t.Fatalf("%s: aggregates differ: %+v vs %+v", label, got, want)
	}
	if len(got.Collisions) != len(want.Collisions) {
		t.Fatalf("%s: collision logs %d vs %d", label, len(got.Collisions), len(want.Collisions))
	}
	for i := range got.Collisions {
		if got.Collisions[i] != want.Collisions[i] {
			t.Fatalf("%s: collision %d: %+v vs %+v", label, i, got.Collisions[i], want.Collisions[i])
		}
	}
}

func copyResult(r *sim.Result) *sim.Result {
	cp := *r
	cp.Outcomes = append([]sim.Outcome(nil), r.Outcomes...)
	cp.Collisions = append([]sim.Collision(nil), r.Collisions...)
	return &cp
}

// TestClusterVsEngineAcrossTopologies: the cluster simulator with the
// real partitioner, across topologies hitting every partition strategy,
// pinned byte-for-byte against the single-lane engine and the per-flit
// reference model.
func TestClusterVsEngineAcrossTopologies(t *testing.T) {
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus2x4", topology.NewTorus(2, 4).Graph()},    // box strategy
		{"butterfly3", topology.NewButterfly(3).Graph()}, // bands strategy
		{"debruijn4", topology.NewDeBruijn(4).Graph()},   // bfs fallback
		{"mesh2x5", topology.NewMesh(2, 5).Graph()},      // box, odd side
		{"ring12", topology.NewRing(12).Graph()},         // bfs fallback
	}
	refEng := sim.NewEngine()
	seed := uint64(70000)
	for _, tp := range topos {
		for _, shards := range []int{1, 2, 4, 8} {
			cs := New(shards)
			for _, conv := range []func(graph.NodeID) bool{nil, sim.FullConversion} {
				for _, ack := range []int{0, 2} {
					seed++
					src := rng.New(seed)
					worms := randomWorms(tp.g, src, 24, 4, 8, 2)
					cfg := sim.Config{
						Bandwidth:        2,
						Rule:             optical.ServeFirst,
						Tie:              optical.TieEliminateAll,
						Wreckage:         sim.Drain,
						Conversion:       conv,
						AckLength:        ack,
						RecordCollisions: true,
						CheckInvariants:  true,
					}
					label := fmt.Sprintf("%s/shards=%d/conv=%v/ack=%d", tp.name, shards, conv != nil, ack)
					got, err := cs.Run(tp.g, worms, cfg)
					if err != nil {
						t.Fatalf("%s: cluster: %v", label, err)
					}
					gotCopy := copyResult(got)
					packed, err := refEng.Run(tp.g, worms, cfg)
					if err != nil {
						t.Fatalf("%s: packed: %v", label, err)
					}
					compareRuns(t, label+"/vs-packed", gotCopy, packed)
					ref, err := sim.RunReference(tp.g, worms, cfg)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					compareRuns(t, label+"/vs-reference", gotCopy, ref)
				}
			}
		}
	}
}

// TestClusterFaultArm pins sharded execution under random fault plans —
// every fault kind — against the per-flit reference model.
func TestClusterFaultArm(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	seed := uint64(81000)
	for _, shards := range []int{2, 4, 8} {
		cs := New(shards)
		for trial := 0; trial < 3; trial++ {
			seed++
			src := rng.New(seed)
			worms := randomWorms(g, src, 28, 4, 6, 2)
			plan := faults.MustRandom(g, 2, faults.GenConfig{
				Horizon: 20, LinkOutages: 6, WavelengthOutages: 5,
				AckLosses: 3, StuckCouplers: 2,
				MinDuration: 4, MaxDuration: 14,
			}, src.Split())
			cfg := sim.Config{
				Bandwidth:        2,
				Rule:             optical.ServeFirst,
				Wreckage:         sim.Drain,
				AckLength:        2,
				RecordCollisions: true,
				CheckInvariants:  true,
				Faults:           plan.MustCompile(g, 2),
			}
			label := fmt.Sprintf("shards=%d/trial=%d", shards, trial)
			got, err := cs.Run(g, worms, cfg)
			if err != nil {
				t.Fatalf("%s: cluster: %v", label, err)
			}
			gotCopy := copyResult(got)
			ref, err := sim.RunReference(g, worms, cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			compareRuns(t, label, gotCopy, ref)
		}
	}
}

// TestClusterFallback: ineligible configurations silently run on the
// plain engine and still match the reference.
func TestClusterFallback(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	cs := New(4)
	refEng := sim.NewEngine()
	src := rng.New(90210)
	worms := randomWorms(g, src, 16, 4, 6, 2)
	for _, cfg := range []sim.Config{
		{Bandwidth: 2, Rule: optical.Priority, Wreckage: sim.Drain, RecordCollisions: true},
		{Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: sim.Vanish, RecordCollisions: true},
	} {
		got, err := cs.Run(g, worms, cfg)
		if err != nil {
			t.Fatalf("fallback run: %v", err)
		}
		gotCopy := copyResult(got)
		want, err := refEng.Run(g, worms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, fmt.Sprintf("rule=%v/wreck=%v", cfg.Rule, cfg.Wreckage), gotCopy, want)
	}
	if cs.BoundaryHandoffs() != 0 || cs.BoundaryWords() != 0 {
		t.Fatal("fallback runs must not record boundary traffic")
	}
}

// TestClusterTelemetry: a caller handing the cluster simulator a plain
// Collector gets the same merged snapshot a single-engine run produces,
// plus the boundary-traffic counters.
func TestClusterTelemetry(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	src := rng.New(4242)
	worms := randomWorms(g, src, 24, 4, 8, 2)
	base := sim.Config{
		Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: sim.Drain,
		AckLength: 2, CheckInvariants: true,
	}

	refCol := telemetry.NewCollector()
	refCfg := base
	refCfg.Probe = refCol
	if _, err := sim.NewEngine().Run(g, worms, refCfg); err != nil {
		t.Fatal(err)
	}
	refSnap := refCol.Snapshot()

	cs := New(4)
	col := telemetry.NewCollector()
	cfg := base
	cfg.Probe = col
	if _, err := cs.Run(g, worms, cfg); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()

	if snap.BoundaryHandoffs != cs.BoundaryHandoffs() || snap.BoundaryWords != cs.BoundaryWords() {
		t.Fatalf("boundary counters not folded: snap %d/%d vs simulator %d/%d",
			snap.BoundaryHandoffs, snap.BoundaryWords, cs.BoundaryHandoffs(), cs.BoundaryWords())
	}
	if snap.BoundaryHandoffs == 0 || snap.BoundaryWords == 0 {
		t.Fatal("expected boundary traffic on a 4-shard torus run")
	}
	// Everything except the (sharding-only) boundary counters must match
	// the single-engine collector exactly.
	snap.BoundaryHandoffs, snap.BoundaryWords = 0, 0
	want, err := json.Marshal(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("cluster telemetry differs from reference:\nref:     %s\ncluster: %s", want, got)
	}
}

// TestClusterDynamicDelegates: trace-style dynamic runs execute
// unsharded but deterministically identical to sim.RunDynamic.
func TestClusterDynamicDelegates(t *testing.T) {
	g := topology.NewTorus(2, 4).Graph()
	reqs := []sim.Request{
		{ID: 0, Path: g.ShortestPath(0, 5), Arrival: 0, Length: 2},
		{ID: 1, Path: g.ShortestPath(3, 6), Arrival: 1, Length: 3},
		{ID: 2, Path: g.ShortestPath(7, 1), Arrival: 2, Length: 1},
	}
	cfg := sim.DynamicConfig{Sim: sim.Config{
		Bandwidth: 2, Rule: optical.ServeFirst, Wreckage: sim.Drain, AckLength: 1,
	}}
	cs := New(4)
	got, err := cs.RunDynamic(g, reqs, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	gotOutcomes := append([]sim.DynamicOutcome(nil), got.Outcomes...)
	want, err := sim.RunDynamic(g, reqs, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.TotalAttempts != want.TotalAttempts {
		t.Fatalf("dynamic aggregates differ: %+v vs %+v", got, want)
	}
	for i := range gotOutcomes {
		if gotOutcomes[i] != want.Outcomes[i] {
			t.Fatalf("dynamic outcome %d: %+v vs %+v", i, gotOutcomes[i], want.Outcomes[i])
		}
	}
}

// TestShardedVsEngineAtScale runs ~2000-worm rounds through the cluster
// simulator on graphs large enough that tails linger on a neighbouring
// shard and heads cross cuts back and forth: a 32x32 torus, a 16x16
// mesh, a 6-dimensional hypercube and a butterfly, at 2, 3, 5 and 8
// shards, worms up to 16 flits long, B in {1, 4, 65} (65 puts a bucket
// stride across an occupancy word boundary). Every run must equal the
// plain packed engine's result and collision log. A fault arm attaches a
// random fault plan and a telemetry collector and also compares the
// snapshots.
func TestShardedVsEngineAtScale(t *testing.T) {
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus32x32", topology.NewTorus(2, 32).Graph()},
		{"mesh16x16", topology.NewMesh(2, 16).Graph()},
		{"hypercube6", topology.NewHypercube(6).Graph()},
		{"butterfly4", topology.NewButterfly(4).Graph()},
	}
	refEng := sim.NewEngine()
	seed := uint64(97000)
	for _, tp := range topos {
		for _, shards := range []int{2, 3, 5, 8} {
			cs := New(shards)
			for _, bw := range []int{1, 4, 65} {
				seed++
				src := rng.New(seed)
				worms := randomWorms(tp.g, src, 2000, 16, 48, bw)
				cfg := sim.Config{
					Bandwidth:        bw,
					Rule:             optical.ServeFirst,
					Tie:              optical.TiePolicy(seed % 2),
					Wreckage:         sim.Drain,
					AckLength:        int(seed % 3),
					RecordCollisions: true,
				}
				if seed%4 == 0 {
					cfg.Conversion = sim.FullConversion
				}
				label := fmt.Sprintf("%s/shards=%d/B=%d", tp.name, shards, bw)
				got, err := cs.Run(tp.g, worms, cfg)
				if err != nil {
					t.Fatalf("%s: cluster: %v", label, err)
				}
				gotCopy := copyResult(got)
				want, err := refEng.Run(tp.g, worms, cfg)
				if err != nil {
					t.Fatalf("%s: packed: %v", label, err)
				}
				compareRuns(t, label, gotCopy, want)
			}

			// Fault arm: outages, ack losses and stuck couplers, with the
			// telemetry snapshot compared as well.
			seed++
			src := rng.New(seed)
			worms := randomWorms(tp.g, src, 2000, 16, 48, 4)
			plan := faults.MustRandom(tp.g, 4, faults.GenConfig{
				Horizon: 120, LinkOutages: 40, WavelengthOutages: 40,
				AckLosses: 20, StuckCouplers: 8,
				MinDuration: 4, MaxDuration: 40,
			}, src.Split())
			cfg := sim.Config{
				Bandwidth:        4,
				Rule:             optical.ServeFirst,
				Wreckage:         sim.Drain,
				AckLength:        2,
				RecordCollisions: true,
				CheckInvariants:  true,
				Faults:           plan.MustCompile(tp.g, 4),
			}
			label := fmt.Sprintf("%s/shards=%d/faults", tp.name, shards)
			col := telemetry.NewCollector()
			cfg.Probe = col
			got, err := cs.Run(tp.g, worms, cfg)
			if err != nil {
				t.Fatalf("%s: cluster: %v", label, err)
			}
			gotCopy := copyResult(got)
			refCol := telemetry.NewCollector()
			cfg.Probe = refCol
			want, err := refEng.Run(tp.g, worms, cfg)
			if err != nil {
				t.Fatalf("%s: packed: %v", label, err)
			}
			compareRuns(t, label, gotCopy, want)
			if want.FaultKillCount == 0 {
				t.Fatalf("%s: the fault plan killed nothing", label)
			}
			snap := col.Snapshot()
			if snap.BoundaryHandoffs == 0 {
				t.Fatalf("%s: no boundary handoffs", label)
			}
			snap.BoundaryHandoffs, snap.BoundaryWords = 0, 0
			wantJSON, err := json.Marshal(refCol.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("%s: telemetry differs:\nref:     %s\ncluster: %s", label, wantJSON, gotJSON)
			}
		}
	}
}
