package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/rng"
	"repro/internal/topology"
)

// FuzzEngineVsReference decodes arbitrary bytes into a routing scenario
// and asserts the engine and the per-flit reference simulator produce
// identical results, fault plans and fault kills included. `go test`
// runs the seed corpus; `go test -fuzz=FuzzEngineVsReference
// ./internal/sim` explores further.
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
	// Random fault plans (graph-byte bit 6), each with fault kills and a
	// collision: serve-first drain with acks (sharded arm too), priority
	// drain, vanish with conversion, B=64 conversion whose outages darken
	// slots across the occupancy word boundary, and drain with conversion.
	f.Add([]byte{66, 33, 12, 4, 11, 11, 6, 5, 10, 8, 2, 8, 14, 5, 9, 2, 3, 15, 12, 9, 13, 6, 0, 7, 6, 1})
	f.Add([]byte{64, 37, 15, 2, 11, 5, 15, 6, 8, 6, 10, 0, 4, 7, 15, 8, 6, 9, 12, 0, 15, 13, 15, 14, 1, 1})
	f.Add([]byte{65, 105, 4, 1, 14, 11, 14, 5, 13, 9, 7, 0, 0, 1, 6, 0, 9, 9, 4, 6, 13, 3, 10, 2, 10, 2})
	f.Add([]byte{98, 97, 1, 1, 11, 11, 3, 2, 8, 9, 1, 1, 8, 11, 8, 11, 14, 8, 1, 15, 5, 5, 7, 13, 13, 14})
	f.Add([]byte{66, 97, 0, 4, 9, 10, 1, 11, 3, 11, 0, 10, 1, 10, 0, 8, 15, 12, 1, 12, 7, 6, 9, 10, 13, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g, worms, cfg := decodeScenario(data)
		if len(worms) == 0 {
			return
		}
		cfg.CheckInvariants = true
		got, errE := Run(g, worms, cfg)
		cfg.CheckInvariants = false
		ref, errR := RunReference(g, worms, cfg)
		if (errE != nil) != (errR != nil) {
			t.Fatalf("error disagreement: engine %v, reference %v", errE, errR)
		}
		if errE != nil {
			return
		}
		compareResults(t, "engine-vs-reference", got, ref)
		if got.FaultKillCount != ref.FaultKillCount {
			t.Fatalf("FaultKillCount: engine %d vs reference %d", got.FaultKillCount, ref.FaultKillCount)
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
// Graph byte: the byte with bit 6 masked off, modulo the topology count,
// picks the topology; bits 4-5, when nonzero, override the bandwidth to
// 62+ext ∈ {63, 64, 65} so the kernel's 64-slot word boundary is
// exercised (zero keeps the config-byte bandwidth); bit 6 attaches a
// non-empty random fault plan — every fault kind — drawn from a seed
// hashed from all the input bytes, replacing any bit-7 empty plan. Clear
// high bits keep the original corpus decoding unchanged.
func decodeScenario(data []byte) (*graph.Graph, []Worm, Config) {
	h := fnv.New64a()
	h.Write(data)
	planSeed := h.Sum64()
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
	g := graphs[int(gb&^0x40)%len(graphs)]
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
	switch {
	case gb>>6&1 == 1:
		plan := faults.MustRandom(g, cfg.Bandwidth, faults.GenConfig{
			Horizon: 16, LinkOutages: 2, WavelengthOutages: 2,
			AckLosses: 2, StuckCouplers: 1,
			MinDuration: 1, MaxDuration: 10,
		}, rng.New(planSeed))
		cfg.Faults = plan.MustCompile(g, cfg.Bandwidth)
	case cfgByte>>7&1 == 1:
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
