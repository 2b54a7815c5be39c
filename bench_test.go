package repro

// The benchmark harness: one benchmark per experiment of the paper
// reproduction (the tables of EXPERIMENTS.md), plus micro-benchmarks of
// the simulator and protocol kernels. Experiment benchmarks run the
// reduced (Quick) ladders so `go test -bench=.` completes in seconds; the
// full tables are produced by `go run ./cmd/experiments -all`.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/optical"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/shardsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/optnet"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, experiments.Options{Seed: 1, Quick: true, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Fprint(io.Discard)
	}
}

// One benchmark per experiment table (see DESIGN.md section 4).

func BenchmarkE1_LeveledUpperBound(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2_StaggeredLowerBound(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3_ShortcutFreeUpper(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4_CyclicLowerBound(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5_PriorityVsServeFirst(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6_CongestionDecay(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7_NodeSymmetric(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8_Meshes(b *testing.B)               { benchExperiment(b, "E8") }
func BenchmarkE9_ButterflyQ(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10_Conversion(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_SparseConversion(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12_MultiHop(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkE13_RWAContrast(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkE14_Lemma210(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15_DynamicLoad(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16_ElectronicBaseline(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17_Adversarial(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkA1_Schedules(b *testing.B)            { benchExperiment(b, "A1") }
func BenchmarkA2_Wreckage(b *testing.B)             { benchExperiment(b, "A2") }
func BenchmarkA3_Acks(b *testing.B)                 { benchExperiment(b, "A3") }
func BenchmarkA4_TiePolicy(b *testing.B)            { benchExperiment(b, "A4") }
func BenchmarkA5_Constants(b *testing.B)            { benchExperiment(b, "A5") }
func BenchmarkA6_WavelengthChoice(b *testing.B)     { benchExperiment(b, "A6") }
func BenchmarkA7_Synchronization(b *testing.B)      { benchExperiment(b, "A7") }
func BenchmarkF4_WitnessTrees(b *testing.B)         { benchExperiment(b, "F4") }
func BenchmarkF5_WitnessDepths(b *testing.B)        { benchExperiment(b, "F5") }
func BenchmarkS1_Scorecard(b *testing.B)            { benchExperiment(b, "S1") }

// Micro-benchmarks of the kernels.

// simRoundWorkload builds the standard kernel workload: 256 worms of a
// random permutation on a 16x16 torus, bandwidth 4 (the protocol's inner
// loop at its usual operating point).
func simRoundWorkload(tb testing.TB, side int) (*graph.Graph, []sim.Worm, sim.Config) {
	tor := topology.NewTorus(2, side)
	g := tor.Graph()
	src := rng.New(7)
	prs := paths.RandomPermutation(g.NumNodes(), src)
	col, err := paths.Build(g, prs, paths.DimOrderTorus(tor))
	if err != nil {
		tb.Fatal(err)
	}
	worms := make([]sim.Worm, col.Size())
	for i := range worms {
		worms[i] = sim.Worm{
			ID: i, Path: col.Path(i), Length: 8,
			Delay: src.Intn(64), Wavelength: src.Intn(4),
		}
	}
	return g, worms, sim.Config{Bandwidth: 4, Rule: optical.ServeFirst, AckLength: 1}
}

// BenchmarkSimRound measures one simulated round of 256 worms on a
// 16x16 torus through the package-level entry point (a fresh engine per
// call, as one-shot callers see it).
func BenchmarkSimRound(b *testing.B) {
	g, worms, cfg := simRoundWorkload(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, worms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSteadyState measures the same round on a reused Engine —
// the protocol's steady state, where buffers are warm and the hot path
// should allocate nothing. The probe=off variant is the baseline (and must
// stay at 0 allocs/op, see TestSteadyStateAllocFree); probe=on runs the
// same workload with a warmed telemetry Collector attached, bounding the
// full observability overhead. Compare against BenchmarkEngineFresh with
//
//	go test -bench BenchmarkEngine -benchmem .
func BenchmarkEngineSteadyState(b *testing.B) {
	for _, side := range []int{16, 24} {
		for _, probe := range []string{"off", "on"} {
			name := fmt.Sprintf("torus_side=%d/worms=%d/probe=%s", side, side*side, probe)
			b.Run(name, func(b *testing.B) {
				g, worms, cfg := simRoundWorkload(b, side)
				if probe == "on" {
					cfg.Probe = optnet.NewCollector()
				}
				eng := sim.NewEngine()
				if _, err := eng.Run(g, worms, cfg); err != nil { // warm the pools
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(g, worms, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestSteadyStateAllocFree pins the zero-overhead contract of the probe
// and fault seams: a warm engine with no probe attached performs zero
// allocations per round, attaching a warmed Collector keeps it that way
// (the enabled path only adds counter arithmetic), and so does attaching
// a compiled empty fault plan (the fault path is one nil branch).
func TestSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		probe  *optnet.Collector
		faults bool
	}{
		{"probe=off", nil, false},
		{"probe=on", optnet.NewCollector(), false},
		{"faults=empty", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, worms, cfg := simRoundWorkload(t, 8)
			if tc.probe != nil {
				cfg.Probe = tc.probe
			}
			if tc.faults {
				cfg.Faults = (&optnet.FaultPlan{}).MustCompile(g, cfg.Bandwidth)
			}
			eng := sim.NewEngine()
			if _, err := eng.Run(g, worms, cfg); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := eng.Run(g, worms, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state round allocates %v allocs/op, want 0", avg)
			}
		})
	}
}

// shardedWorkload builds the sharded-simulation benchmark workload:
// `worms` random dimension-order routes on a side x side torus — a large
// sparse network where per-shard step work dominates the lockstep
// barriers. Worm count is deliberately far below the node count so the
// active set, not the occupancy tables, is the hot state. The fresh-engine
// and path-congestion benchmarks reuse it with many more routes.
func shardedWorkload(tb testing.TB, side, worms int) (*graph.Graph, []sim.Worm, sim.Config) {
	tb.Helper()
	tor := topology.NewTorus(2, side)
	g := tor.Graph()
	sel := paths.DimOrderTorus(tor)
	src := rng.New(29)
	n := g.NumNodes()
	ws := make([]sim.Worm, 0, worms)
	for id := 0; len(ws) < worms; id++ {
		s, d := src.Intn(n), src.Intn(n)
		if s == d {
			continue
		}
		ws = append(ws, sim.Worm{
			ID: len(ws), Path: sel(s, d), Length: 8,
			Delay: src.Intn(256), Wavelength: src.Intn(4),
		})
	}
	return g, ws, sim.Config{Bandwidth: 4, Rule: optical.ServeFirst, AckLength: 1}
}

// BenchmarkShardedSteadyState measures one round of 2048 worms on a
// 512x512 torus through the cluster simulator at 1, 2, 4, and 8 shards
// (shards=1 is the plain single-engine path, the scaling baseline).
// Each shard is a lane of the packed kernel that walks, resolves and
// converts its own links' fragments and words; the lanes run on
// min(shards, GOMAXPROCS) goroutines, so throughput scales with the cores
// the host has, while input validation, spawning and the per-step
// coordinator sections stay serial.
func BenchmarkShardedSteadyState(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("torus_side=512/worms=2048/shards=%d", shards)
		b.Run(name, func(b *testing.B) {
			g, worms, cfg := shardedWorkload(b, 512, 2048)
			cs := shardsim.New(shards)
			if _, err := cs.Run(g, worms, cfg); err != nil { // warm pools + partition cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Run(g, worms, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fresh-engine workload at scale: freshWorms random dimension-order routes
// on a freshSide x freshSide torus. Validation and first-run buffer growth
// are a large share of such a run, so a return to super-linear set-up
// work shows here long before it shows in the warmed kernels.
const (
	freshSide  = 64
	freshWorms = 100000
)

// BenchmarkEngineFresh measures one round with a cold Engine per
// iteration, isolating the cost of first-run buffer growth: the 256-worm
// kernel workload, and 10^5 worms where input validation must stay
// linear.
func BenchmarkEngineFresh(b *testing.B) {
	b.Run("torus_side=16/worms=256", func(b *testing.B) {
		g, worms, cfg := simRoundWorkload(b, 16)
		benchFresh(b, g, worms, cfg)
	})
	b.Run(fmt.Sprintf("torus_side=%d/worms=%d", freshSide, freshWorms), func(b *testing.B) {
		g, worms, cfg := shardedWorkload(b, freshSide, freshWorms)
		benchFresh(b, g, worms, cfg)
	})
}

// benchFresh runs the worms on a new Engine per iteration.
func benchFresh(b *testing.B, g *graph.Graph, worms []sim.Worm, cfg sim.Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewEngine().Run(g, worms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitBenchTrajectory writes BENCH_sim.json with the simulator kernel
// numbers across a ladder of torus sizes. Gated on an env var so plain
// `go test` stays fast; emit with
//
//	BENCH_SIM_JSON=BENCH_sim.json go test -run TestEmitBenchTrajectory .
func TestEmitBenchTrajectory(t *testing.T) {
	path := os.Getenv("BENCH_SIM_JSON")
	if path == "" {
		t.Skip("set BENCH_SIM_JSON=<file> to emit the benchmark trajectory")
	}
	type point struct {
		Bench     string `json:"bench"`
		TorusSide int    `json:"torus_side"`
		Worms     int    `json:"worms"`
		Shards    int    `json:"shards,omitempty"`
		NsPerOp   int64  `json:"ns_per_op"`
		AllocsOp  int64  `json:"allocs_per_op"`
		BytesOp   int64  `json:"bytes_per_op"`
	}
	var points []point
	for _, side := range []int{8, 16, 24} {
		for _, mode := range []string{"steady", "fresh", "steady-probe"} {
			side, mode := side, mode
			r := testing.Benchmark(func(b *testing.B) {
				g, worms, cfg := simRoundWorkload(b, side)
				if mode == "steady-probe" {
					cfg.Probe = optnet.NewCollector()
				}
				eng := sim.NewEngine()
				if mode != "fresh" {
					if _, err := eng.Run(g, worms, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "fresh" {
						eng = sim.NewEngine()
					}
					if _, err := eng.Run(g, worms, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			points = append(points, point{
				Bench:     "BenchmarkEngine/" + mode,
				TorusSide: side,
				Worms:     side * side,
				NsPerOp:   r.NsPerOp(),
				AllocsOp:  r.AllocsPerOp(),
				BytesOp:   r.AllocedBytesPerOp(),
			})
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		r := testing.Benchmark(func(b *testing.B) {
			g, worms, cfg := shardedWorkload(b, 512, 2048)
			cs := shardsim.New(shards)
			if _, err := cs.Run(g, worms, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Run(g, worms, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		points = append(points, point{
			Bench:     "BenchmarkShardedSteadyState",
			TorusSide: 512,
			Worms:     2048,
			Shards:    shards,
			NsPerOp:   r.NsPerOp(),
			AllocsOp:  r.AllocsPerOp(),
			BytesOp:   r.AllocedBytesPerOp(),
		})
	}
	r := testing.Benchmark(func(b *testing.B) {
		g, worms, cfg := shardedWorkload(b, freshSide, freshWorms)
		benchFresh(b, g, worms, cfg)
	})
	points = append(points, point{
		Bench:     "BenchmarkEngine/fresh",
		TorusSide: freshSide,
		Worms:     freshWorms,
		NsPerOp:   r.NsPerOp(),
		AllocsOp:  r.AllocsPerOp(),
		BytesOp:   r.AllocedBytesPerOp(),
	})
	r = testing.Benchmark(func(b *testing.B) { benchPathCongestion(b, congestionSide, congestionRoutes) })
	points = append(points, point{
		Bench:     "BenchmarkPathCongestion",
		TorusSide: congestionSide,
		Worms:     congestionRoutes,
		NsPerOp:   r.NsPerOp(),
		AllocsOp:  r.AllocsPerOp(),
		BytesOp:   r.AllocedBytesPerOp(),
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d points to %s", len(points), path)
}

// TestBenchRegressionGuard re-measures the steady-state kernel points of
// the checked-in BENCH_sim.json baseline and fails if any regresses more
// than 15% in ns/op, or allocates when the baseline did not. The
// fresh-engine point at 10^5 worms is held to a loose slack, so that
// super-linear set-up work cannot hide behind the warm kernels. It then
// re-measures the serving hot paths against BENCH_serve.json with a
// looser 50% slack (they are store-I/O and JSON bound, so they wobble
// more than the pure kernel), and the distributed hot paths against
// BENCH_cluster.json with the loosest slack of all (real HTTP, thief
// timing). Each point takes the best of three runs to damp scheduler
// noise. Gated on an env var so plain `go test` stays
// fast; run with
//
//	BENCH_GUARD=1 go test -run TestBenchRegressionGuard .
func TestBenchRegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the benchmark regression guard")
	}
	data, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var points []struct {
		Bench     string `json:"bench"`
		TorusSide int    `json:"torus_side"`
		Worms     int    `json:"worms"`
		NsPerOp   int64  `json:"ns_per_op"`
		AllocsOp  int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	const slackPct = 15
	for _, p := range points {
		if p.Bench != "BenchmarkEngine/steady" {
			continue // probe and small fresh rows are informational; fresh 10^5 is checked below
		}
		side := p.TorusSide
		bestNs, bestAllocs := int64(math.MaxInt64), int64(math.MaxInt64)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				g, worms, cfg := simRoundWorkload(b, side)
				eng := sim.NewEngine()
				if _, err := eng.Run(g, worms, cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(g, worms, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := r.NsPerOp(); ns < bestNs {
				bestNs = ns
			}
			if a := r.AllocsPerOp(); a < bestAllocs {
				bestAllocs = a
			}
		}
		limit := p.NsPerOp * (100 + slackPct) / 100
		t.Logf("torus_side=%d: %d ns/op (baseline %d, limit %d)", side, bestNs, p.NsPerOp, limit)
		if bestNs > limit {
			t.Errorf("torus_side=%d regressed: %d ns/op exceeds baseline %d by more than %d%%",
				side, bestNs, p.NsPerOp, slackPct)
		}
		if bestAllocs > p.AllocsOp {
			t.Errorf("torus_side=%d allocates %d allocs/op, baseline %d", side, bestAllocs, p.AllocsOp)
		}
	}

	// Fresh engine at 10^5 worms: a loose +100% ns and +25% allocs slack
	// (first-run page faults and GC wobble far more than the warm kernel),
	// yet a return to per-worm regrowth of validator scratch — O(n^2)
	// copying, an allocation per new highest ID — overshoots both.
	const freshSlackPct, freshAllocSlackPct = 100, 25
	freshFound := false
	for _, p := range points {
		if p.Bench != "BenchmarkEngine/fresh" || p.Worms != freshWorms {
			continue
		}
		freshFound = true
		bestNs, bestAllocs := int64(math.MaxInt64), int64(math.MaxInt64)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				g, worms, cfg := shardedWorkload(b, p.TorusSide, p.Worms)
				benchFresh(b, g, worms, cfg)
			})
			bestNs = min(bestNs, r.NsPerOp())
			bestAllocs = min(bestAllocs, r.AllocsPerOp())
		}
		limit := p.NsPerOp * (100 + freshSlackPct) / 100
		allocLimit := p.AllocsOp * (100 + freshAllocSlackPct) / 100
		t.Logf("fresh worms=%d: %d ns/op (baseline %d, limit %d), %d allocs/op (baseline %d, limit %d)",
			p.Worms, bestNs, p.NsPerOp, limit, bestAllocs, p.AllocsOp, allocLimit)
		if bestNs > limit {
			t.Errorf("fresh worms=%d regressed: %d ns/op exceeds baseline %d by more than %d%%",
				p.Worms, bestNs, p.NsPerOp, freshSlackPct)
		}
		if bestAllocs > allocLimit {
			t.Errorf("fresh worms=%d allocates %d allocs/op, baseline %d (+%d%% limit %d)",
				p.Worms, bestAllocs, p.AllocsOp, freshAllocSlackPct, allocLimit)
		}
	}
	if !freshFound {
		t.Errorf("BENCH_sim.json has no BenchmarkEngine/fresh point at %d worms", freshWorms)
	}

	// Sharded lockstep kernel: +25% ns slack (goroutine scheduling and
	// barrier timing wobble more than the single-threaded kernel) and +25%
	// allocs slack (per-run worker spin-up is real allocation, but bounded).
	var shardedPoints []struct {
		Bench    string `json:"bench"`
		Shards   int    `json:"shards"`
		NsPerOp  int64  `json:"ns_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(data, &shardedPoints); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	const shardSlackPct, shardAllocSlackPct = 25, 25
	for _, p := range shardedPoints {
		if p.Bench != "BenchmarkShardedSteadyState" {
			continue
		}
		shards := p.Shards
		bestNs, bestAllocs := int64(math.MaxInt64), int64(math.MaxInt64)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				g, worms, cfg := shardedWorkload(b, 512, 2048)
				cs := shardsim.New(shards)
				if _, err := cs.Run(g, worms, cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cs.Run(g, worms, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			if ns := r.NsPerOp(); ns < bestNs {
				bestNs = ns
			}
			if a := r.AllocsPerOp(); a < bestAllocs {
				bestAllocs = a
			}
		}
		limit := p.NsPerOp * (100 + shardSlackPct) / 100
		t.Logf("sharded shards=%d: %d ns/op (baseline %d, limit %d), %d allocs/op (baseline %d)",
			shards, bestNs, p.NsPerOp, limit, bestAllocs, p.AllocsOp)
		if bestNs > limit {
			t.Errorf("sharded shards=%d regressed: %d ns/op exceeds baseline %d by more than %d%%",
				shards, bestNs, p.NsPerOp, shardSlackPct)
		}
		if allocLimit := p.AllocsOp * (100 + shardAllocSlackPct) / 100; bestAllocs > allocLimit {
			t.Errorf("sharded shards=%d allocates %d allocs/op, baseline %d (+%d%% limit %d)",
				shards, bestAllocs, p.AllocsOp, shardAllocSlackPct, allocLimit)
		}
	}

	// Serving hot paths: wider ns slack (store I/O, JSON), and allocs may
	// drift a little with encoding details — guard at +10%.
	serveData, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		t.Fatalf("reading serving baseline: %v", err)
	}
	var servePoints []struct {
		Bench    string `json:"bench"`
		NsPerOp  int64  `json:"ns_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(serveData, &servePoints); err != nil {
		t.Fatalf("parsing serving baseline: %v", err)
	}
	serveBenches := map[string]func(*testing.B){
		"BenchmarkServeCacheHit":      BenchmarkServeCacheHit,
		"BenchmarkServeSubmit":        BenchmarkServeSubmit,
		"BenchmarkServeDynamicSubmit": BenchmarkServeDynamicSubmit,
	}
	const serveSlackPct, serveAllocSlackPct = 50, 10
	for _, p := range servePoints {
		fn, ok := serveBenches[p.Bench]
		if !ok {
			t.Errorf("serving baseline names unknown benchmark %q", p.Bench)
			continue
		}
		bestNs, bestAllocs := int64(math.MaxInt64), int64(math.MaxInt64)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(fn)
			if ns := r.NsPerOp(); ns < bestNs {
				bestNs = ns
			}
			if a := r.AllocsPerOp(); a < bestAllocs {
				bestAllocs = a
			}
		}
		limit := p.NsPerOp * (100 + serveSlackPct) / 100
		t.Logf("%s: %d ns/op (baseline %d, limit %d), %d allocs/op (baseline %d)",
			p.Bench, bestNs, p.NsPerOp, limit, bestAllocs, p.AllocsOp)
		if bestNs > limit {
			t.Errorf("%s regressed: %d ns/op exceeds baseline %d by more than %d%%",
				p.Bench, bestNs, p.NsPerOp, serveSlackPct)
		}
		if allocLimit := p.AllocsOp * (100 + serveAllocSlackPct) / 100; bestAllocs > allocLimit {
			t.Errorf("%s allocates %d allocs/op, baseline %d (+%d%% limit %d)",
				p.Bench, bestAllocs, p.AllocsOp, serveAllocSlackPct, allocLimit)
		}
	}

	// Distributed hot paths: the widest slack of all (+75% ns, +25%
	// allocs) — these cross real HTTP connections, thief poll timing, and
	// the replication queue, so they wobble far more than anything
	// in-process.
	clusterData, err := os.ReadFile("BENCH_cluster.json")
	if err != nil {
		t.Fatalf("reading cluster baseline: %v", err)
	}
	var clusterPoints []struct {
		Bench    string `json:"bench"`
		NsPerOp  int64  `json:"ns_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(clusterData, &clusterPoints); err != nil {
		t.Fatalf("parsing cluster baseline: %v", err)
	}
	clusterBenches := map[string]func(*testing.B){
		"BenchmarkForwardedSubmit":        BenchmarkForwardedSubmit,
		"BenchmarkClusterStealThroughput": BenchmarkClusterStealThroughput,
	}
	const clusterSlackPct, clusterAllocSlackPct = 75, 25
	for _, p := range clusterPoints {
		fn, ok := clusterBenches[p.Bench]
		if !ok {
			t.Errorf("cluster baseline names unknown benchmark %q", p.Bench)
			continue
		}
		bestNs, bestAllocs := int64(math.MaxInt64), int64(math.MaxInt64)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(fn)
			if ns := r.NsPerOp(); ns < bestNs {
				bestNs = ns
			}
			if a := r.AllocsPerOp(); a < bestAllocs {
				bestAllocs = a
			}
		}
		limit := p.NsPerOp * (100 + clusterSlackPct) / 100
		t.Logf("%s: %d ns/op (baseline %d, limit %d), %d allocs/op (baseline %d)",
			p.Bench, bestNs, p.NsPerOp, limit, bestAllocs, p.AllocsOp)
		if bestNs > limit {
			t.Errorf("%s regressed: %d ns/op exceeds baseline %d by more than %d%%",
				p.Bench, bestNs, p.NsPerOp, clusterSlackPct)
		}
		if allocLimit := p.AllocsOp * (100 + clusterAllocSlackPct) / 100; bestAllocs > allocLimit {
			t.Errorf("%s allocates %d allocs/op, baseline %d (+%d%% limit %d)",
				p.Bench, bestAllocs, p.AllocsOp, clusterAllocSlackPct, allocLimit)
		}
	}
}

// BenchmarkProtocolTorus measures a complete protocol run end to end.
func BenchmarkProtocolTorus(b *testing.B) {
	net := optnet.Torus(2, 16)
	wl := optnet.Permutation(net, 3)
	col, err := optnet.BuildCollection(net, wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := optnet.RouteCollection(col, optnet.Params{
			Bandwidth: 4, WormLength: 8, Seed: uint64(i), AckLength: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDelivered {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkPathSelection measures dimension-order selection throughput.
func BenchmarkPathSelection(b *testing.B) {
	tor := topology.NewTorus(2, 32)
	sel := paths.DimOrderTorus(tor)
	n := tor.Graph().NumNodes()
	src := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, d := src.Intn(n), src.Intn(n)
		if s != d {
			_ = sel(s, d)
		}
	}
}

// Paper-scale C-tilde workload: congestionRoutes random dimension-order
// routes on a congestionSide x congestionSide torus.
const (
	congestionSide   = 256
	congestionRoutes = 1 << 15
)

// BenchmarkPathCongestion measures the C-tilde computation on a
// collection with cold caches (link resolution, the link index and the
// per-path counts): a 16x16 random function, and the paper-scale routes.
func BenchmarkPathCongestion(b *testing.B) {
	b.Run("torus_side=16/random_function", func(b *testing.B) {
		tor := topology.NewTorus(2, 16)
		src := rng.New(9)
		prs := paths.RandomFunction(tor.Graph().NumNodes(), src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
			if err != nil {
				b.Fatal(err)
			}
			_ = col.PathCongestion()
		}
	})
	b.Run(fmt.Sprintf("torus_side=%d/routes=%d", congestionSide, congestionRoutes), func(b *testing.B) {
		benchPathCongestion(b, congestionSide, congestionRoutes)
	})
}

// benchPathCongestion times PathCongestion on a new collection of the
// given number of random dimension-order routes per iteration; building
// and validating the collection is not timed.
func benchPathCongestion(b *testing.B, side, routes int) {
	g, worms, _ := shardedWorkload(b, side, routes)
	ps := make([]graph.Path, len(worms))
	for i := range worms {
		ps[i] = worms[i].Path
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col, err := paths.NewCollection(g, ps)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_ = col.PathCongestion()
	}
}

// BenchmarkShortcutFreeCheck measures the exact classification predicate.
func BenchmarkShortcutFreeCheck(b *testing.B) {
	tor := topology.NewTorus(2, 8)
	src := rng.New(11)
	prs := paths.RandomPermutation(tor.Graph().NumNodes(), src)
	col, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !col.IsShortCutFree() {
			b.Fatal("unexpected shortcut")
		}
	}
}

// BenchmarkHalvingSchedule measures the delay-schedule computation.
func BenchmarkHalvingSchedule(b *testing.B) {
	p := core.Params{N: 4096, Dilation: 32, PathCongestion: 512, Length: 8, Bandwidth: 4}
	s := core.HalvingSchedule{}
	for i := 0; i < b.N; i++ {
		_ = s.Range(1+i%16, p)
	}
}
