package sim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/topology"
)

// FuzzEngineVsReference decodes arbitrary bytes into a routing scenario
// and asserts the fragment engine and the per-flit reference simulator
// produce identical results. `go test` runs the seed corpus; `go test
// -fuzz=FuzzEngineVsReference ./internal/sim` explores further.
func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 0, 2, 5, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 1, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3})
	// Conversion enabled (bit 6), B=2..4, both rules.
	f.Add([]byte{1, 0x41, 3, 1, 0, 2, 5, 1, 9, 9, 9, 9})
	f.Add([]byte{2, 0x45, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0x67, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3, 8, 8})
	// Priority + Drain with acks (bits 2 and 5).
	f.Add([]byte{1, 0x24, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6})
	f.Add([]byte{2, 0x2c, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6, 0xff, 0x10})
	// Attached empty fault plan (bit 7): must stay byte-for-byte.
	f.Add([]byte{1, 0x80, 3, 1, 0, 2, 5, 1})
	f.Add([]byte{2, 0xac, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6, 0xff, 0x10})
	f.Add([]byte{0, 0xe7, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3, 8, 8})
	// Extended bandwidths via the graph byte's high bits: B ∈ {63, 64, 65}
	// straddles the 64-slot occupancy word boundary (B=1 is cfg bits 0-1).
	f.Add([]byte{0x10, 0x41, 3, 1, 0, 2, 5, 1, 9, 9, 9, 9})
	f.Add([]byte{0x21, 0x04, 5, 1, 3, 3, 2, 2, 7, 0, 1, 6})
	f.Add([]byte{0x32, 0x45, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x30, 0x67, 7, 2, 9, 0, 4, 4, 4, 4, 1, 2, 3, 8, 8})
	// Per-link collision storms: identical worm groups (same source, path,
	// spawn step, and wavelength) all contending for one link at once.
	f.Add([]byte{0, 0x00, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0x10, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0x41, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g, worms, cfg := decodeScenario(data)
		if len(worms) == 0 {
			return
		}
		cfg.CheckInvariants = true
		fast, errF := Run(g, worms, cfg)
		cfg.ForceFlat = true
		flat, errFl := Run(g, worms, cfg)
		cfg.ForceFlat = false
		cfg.CheckInvariants = false
		ref, errR := RunReference(g, worms, cfg)
		if (errF != nil) != (errR != nil) || (errFl != nil) != (errR != nil) {
			t.Fatalf("error disagreement: packed %v, flat %v, reference %v", errF, errFl, errR)
		}
		if errF != nil {
			return
		}
		compareResults(t, "flat-vs-packed", flat, fast)
		for i := range worms {
			if fast.Outcomes[i] != ref.Outcomes[i] {
				t.Fatalf("worm %d: engine %+v vs reference %+v (worm %+v)",
					i, fast.Outcomes[i], ref.Outcomes[i], worms[i])
			}
		}
		if fast.CollisionCount != ref.CollisionCount ||
			fast.Makespan != ref.Makespan ||
			fast.BusySlotSteps != ref.BusySlotSteps ||
			fast.MessageBusySlotSteps != ref.MessageBusySlotSteps ||
			fast.AckBusySlotSteps != ref.AckBusySlotSteps {
			t.Fatalf("aggregate disagreement: engine coll=%d makespan=%d busy=%d vs reference coll=%d makespan=%d busy=%d",
				fast.CollisionCount, fast.Makespan, fast.BusySlotSteps,
				ref.CollisionCount, ref.Makespan, ref.BusySlotSteps)
		}
		if ShardedSupported(cfg) {
			shardedArm(t, g, worms, cfg)
		}
	})
}

// shardedArm pins RunSharded on 2 and 3 node-block shards to the packed
// engine: the whole result, the ordered collision log and the fault-kill
// count. At B >= 63 a bucket stride spans whole occupancy words, so the
// shards' word ranges meet at a stride boundary.
func shardedArm(t *testing.T, g *graph.Graph, worms []Worm, cfg Config) {
	t.Helper()
	cfg.RecordCollisions = true
	cfg.CheckInvariants = true
	packed, err := Run(g, worms, cfg)
	if err != nil {
		t.Fatalf("packed: %v", err)
	}
	eng := NewEngine()
	for _, shards := range []int{2, 3} {
		sr := &ShardedRun{Shards: shards, LinkOwner: blockOwners(g, shards)}
		got, err := eng.RunSharded(g, worms, cfg, sr)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		label := fmt.Sprintf("sharded-vs-packed/shards=%d", shards)
		compareResults(t, label, got, packed)
		compareCollisionLogs(t, label, got, packed)
		if got.FaultKillCount != packed.FaultKillCount {
			t.Fatalf("%s: FaultKillCount %d vs %d", label, got.FaultKillCount, packed.FaultKillCount)
		}
	}
}

// decodeScenario deterministically maps fuzz bytes to a small scenario.
// Config byte layout: bits 0-1 bandwidth-1, bit 2 rule, bit 3 wreckage,
// bit 4 tie, bit 5 ack length, bit 6 wavelength conversion, bit 7
// attached empty fault plan (must not change any result byte).
// Graph byte: low bits pick the topology; bits 4-5, when nonzero,
// override the bandwidth to 62+ext ∈ {63, 64, 65} so the packed path's
// 64-slot word boundary is exercised (zero keeps the config-byte
// bandwidth, so the original corpus decodes unchanged).
func decodeScenario(data []byte) (*graph.Graph, []Worm, Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	graphs := []*graph.Graph{
		topology.NewChain(6).Graph(),
		topology.NewRing(5).Graph(),
		topology.NewTorus(2, 3).Graph(),
	}
	gb := next()
	g := graphs[int(gb)%len(graphs)]
	cfgByte := next()
	cfg := Config{
		Bandwidth: 1 + int(cfgByte&3),
		Rule:      optical.Rule(int(cfgByte>>2) & 1),
		Wreckage:  WreckagePolicy(int(cfgByte>>3) & 1),
		Tie:       optical.TiePolicy(int(cfgByte>>4) & 1),
		AckLength: int(cfgByte>>5) & 1,
	}
	if cfgByte>>6&1 == 1 {
		cfg.Conversion = FullConversion
	}
	if ext := int(gb>>4) & 3; ext > 0 {
		cfg.Bandwidth = 62 + ext
	}
	if cfgByte>>7&1 == 1 {
		cfg.Faults = (&faults.Plan{}).MustCompile(g, cfg.Bandwidth)
	}
	n := g.NumNodes()
	var worms []Worm
	id := 0
	for len(data) >= 4 && id < 12 {
		src := int(next()) % n
		hops := 1 + int(next())%4
		p := graph.Path{src}
		for h := 0; h < hops; h++ {
			ns := g.Neighbors(p[len(p)-1])
			p = append(p, ns[int(next())%len(ns)])
		}
		b := next()
		worms = append(worms, Worm{
			ID:         id,
			Path:       p,
			Length:     1 + int(b&3),
			Delay:      int(b>>2) & 7,
			Wavelength: int(b>>5) % cfg.Bandwidth,
			Rank:       id, // distinct ranks
		})
		id++
	}
	return g, worms, cfg
}
