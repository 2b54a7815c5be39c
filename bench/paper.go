package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/shardsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// The paper_scale protocol, the same at every size: B, L and the ack
// length.
const (
	paperBandwidth = 4
	paperLength    = 8
	paperAckLength = 1
)

// paperConfig sizes the paper_scale workload.
type paperConfig struct {
	label  string // digest label; differs per size
	side   int    // torus side (side x side nodes)
	worms  int    // random routes
	setups int    // set-ups per run; setup_s is their median
}

// fullPaperScale is one fresh protocol run at paper scale: 2^16 random
// dimension-order routes on a 512x512 torus, B=4, L=8, serve-first, ack
// length 1 and the halving schedule. It is sized so that one run fits in
// 8 GB; the quadratic stages (validator, path congestion) and the sharded
// kernel dominate it.
func fullPaperScale() paperConfig {
	return paperConfig{
		label: "paper_scale", side: 512, worms: 1 << 16,
		setups: 3,
	}
}

// paperProtocol is the run's core configuration.
var paperProtocol = core.Config{Bandwidth: paperBandwidth, Length: paperLength, AckLength: paperAckLength}

// paperSources derives the random streams of the route pairs, of the
// protocol and of the stand-alone round-1 worms from the seed; equal
// seeds give equal inputs.
func paperSources(seed uint64) (pairs, protocol, worms *rng.Source) {
	master := rng.New(seed)
	return master.Split(), master.Split(), master.Split()
}

// paperPairs draws the random (source, destination) pairs, src != dst.
func paperPairs(c paperConfig, seed uint64) []paths.Pair {
	src, _, _ := paperSources(seed)
	n := c.side * c.side
	prs := make([]paths.Pair, c.worms)
	for i := range prs {
		s := src.Intn(n)
		d := src.Intn(n - 1)
		if d >= s {
			d++
		}
		prs[i] = paths.Pair{Src: s, Dst: d}
	}
	return prs
}

// paperInput is one set-up: the torus and the routed collection, with the
// time each took.
type paperInput struct {
	g           *graph.Graph
	col         *paths.Collection
	topo, build time.Duration
}

// paperSetup builds the torus and routes the pairs on it.
func paperSetup(c paperConfig, prs []paths.Pair) (*paperInput, error) {
	t0 := time.Now()
	tor := topology.NewTorus(2, c.side)
	t1 := time.Now()
	col, err := paths.Build(tor.Graph(), prs, paths.DimOrderTorus(tor))
	if err != nil {
		return nil, err
	}
	return &paperInput{g: tor.Graph(), col: col, topo: t1.Sub(t0), build: time.Since(t1)}, nil
}

// fresh returns a copy of the input's collection with cold caches, so
// every run pays the same lazy work a first run does.
func (in *paperInput) fresh() (*paths.Collection, error) {
	return paths.NewCollection(in.g, in.col.Paths())
}

// timedSim times every round a protocol run hands to the simulator.
type timedSim struct {
	inner  core.Simulator
	rounds []time.Duration
}

// Run implements core.Simulator.
func (t *timedSim) Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error) {
	t0 := time.Now()
	res, err := t.inner.Run(g, worms, cfg)
	t.rounds = append(t.rounds, time.Since(t0))
	return res, err
}

// total is the summed round time.
func (t *timedSim) total() time.Duration {
	var d time.Duration
	for _, r := range t.rounds {
		d += r
	}
	return d
}

// runPaperScale sets the input up several times, then runs the protocol
// once on one shard per CPU: setup_s is the median set-up, latency_s the
// run. Traced, it runs untraced first for the overhead ratio, then
// profiles a run whose rounds are timed, repeats the run on a plain
// engine (whose result must match), and times the validator, path
// congestion and the telemetry probe on their own.
func runPaperScale(o options, c paperConfig, r *report) error {
	book, err := openDigests(o.state)
	if err != nil {
		return err
	}
	prs := paperPairs(c, o.seed)
	var in *paperInput
	var setups, topos, builds []float64
	for i := 0; i < c.setups; i++ {
		in = nil
		settle() // drop the previous set-up before timing the next
		if in, err = paperSetup(c, prs); err != nil {
			return err
		}
		setups = append(setups, (in.topo + in.build).Seconds())
		topos = append(topos, in.topo.Seconds())
		builds = append(builds, in.build.Seconds())
	}
	shards := runtime.NumCPU()

	if !o.trace {
		settle()
		t0 := time.Now()
		res, err := core.RunWithSimulator(in.col, paperProtocol, protocolSource(o.seed), shardsim.New(shards))
		d := time.Since(t0)
		r.op(checkPaper(o, c, book, in, res, err))
		r.set("setup_s", median(setups), "s")
		r.set("latency_s", d.Seconds(), "s")
		return book.save()
	}

	r.show("topology.build_s", median(topos), "s")
	r.show("paths.build_s", median(builds), "s")

	// Untraced reference run for the overhead ratio.
	col, err := in.fresh()
	if err != nil {
		return err
	}
	settle()
	t0 := time.Now()
	res, err := core.RunWithSimulator(col, paperProtocol, protocolSource(o.seed), shardsim.New(shards))
	untraced := time.Since(t0)
	r.op(checkPaper(o, c, book, in, res, err))

	// Traced run on the sharded simulator.
	col, res = nil, nil
	if col, err = in.fresh(); err != nil {
		return err
	}
	settle()
	cluster := shardsim.New(shards)
	sharded := &timedSim{inner: cluster}
	before := readRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	t0 = time.Now()
	res, err = core.RunWithSimulator(col, paperProtocol, protocolSource(o.seed), sharded)
	traced := time.Since(t0)
	p, perr := prof.stop()
	if perr != nil {
		return perr
	}
	setRuntimeMetrics(r, before, readRuntime())
	setProfileMetrics(r, p)
	r.set("trace_overhead", traced.Seconds()/untraced.Seconds(), "ratio")
	r.op(checkPaper(o, c, book, in, res, err))
	if err != nil {
		return book.save()
	}
	shardedDigest := paperDigest(res)
	wormRounds, collisions := 0, 0
	for _, st := range res.Rounds {
		wormRounds += st.ActiveBefore
		collisions += st.Collisions
	}
	r.show("sim.round_s", sharded.total().Seconds(), "s")
	r.show("sim.round1_s", sharded.rounds[0].Seconds(), "s")
	r.show("core.self_s", (traced - sharded.total()).Seconds(), "s")
	r.show("sim.ns_per_worm_round", float64(sharded.total())/float64(wormRounds), "ns")
	r.show("core.rounds", float64(res.TotalRounds), "count")
	r.show("sim.worm_rounds", float64(wormRounds), "count")
	r.show("sim.collisions", float64(collisions), "count")
	r.show("shardsim.boundary_handoffs", float64(cluster.BoundaryHandoffs()), "count")
	r.show("shardsim.boundary_words", float64(cluster.BoundaryWords()), "count")

	// The same rounds on a plain engine: the result must be identical.
	col, res, cluster = nil, nil, nil
	if col, err = in.fresh(); err != nil {
		return err
	}
	settle()
	eng := sim.NewEngine()
	plain := &timedSim{inner: eng}
	res, err = core.RunWithSimulator(col, paperProtocol, protocolSource(o.seed), plain)
	if err == nil && paperDigest(res) != shardedDigest {
		err = errors.New("plain-engine result differs from the sharded one")
	}
	r.op(err)
	if res == nil {
		return book.save()
	}
	r.show("shardsim.scaling", plain.total().Seconds()/sharded.total().Seconds(), "ratio")

	// The validator alone: a fresh engine rejects the round-1 worm set on
	// its last worm, after validating all the others.
	params := res.Params
	worms := roundOneWorms(in, params, o.seed)
	bad := append([]sim.Worm(nil), worms...)
	bad[len(bad)-1].Wavelength = paperBandwidth
	t0 = time.Now()
	_, err = sim.NewEngine().Run(in.g, bad, sim.Config{Bandwidth: paperBandwidth, AckLength: paperAckLength})
	r.show("sim.validate_s", time.Since(t0).Seconds(), "s")
	if err == nil || !strings.Contains(err.Error(), "wavelength") {
		err = fmt.Errorf("validator: want the out-of-range wavelength rejected, got %v", err)
	} else {
		err = nil
	}
	r.op(err)

	// Path congestion alone, on a collection with cold caches.
	col, res = nil, nil
	settle()
	if col, err = in.fresh(); err != nil {
		return err
	}
	t0 = time.Now()
	cong := col.PathCongestion()
	r.show("paths.congestion_s", time.Since(t0).Seconds(), "s")
	err = nil
	if cong != params.PathCongestion {
		err = fmt.Errorf("path congestion %d, the run used %d", cong, params.PathCongestion)
	}
	r.op(err)

	// Telemetry probe cost: the round-1 worms on the warm plain engine,
	// once with the collector off and once on.
	col = nil
	cfg := sim.Config{Bandwidth: paperBandwidth, AckLength: paperAckLength}
	collector := telemetry.NewCollector()
	var arms [2]float64 // seconds with the collector off, on
	for i, attach := range []bool{false, true} {
		cfg.Probe = nil
		if attach {
			cfg.Probe = collector
		}
		t0 := time.Now()
		_, err := eng.Run(in.g, worms, cfg)
		arms[i] = time.Since(t0).Seconds()
		r.op(err)
	}
	r.show("telemetry.probe_ratio", arms[1]/arms[0], "ratio")
	return book.save()
}

// protocolSource returns a fresh copy of the protocol's random stream.
func protocolSource(seed uint64) *rng.Source {
	_, src, _ := paperSources(seed)
	return src
}

// roundOneWorms builds the worms the protocol sends in round 1: every
// route, with delays drawn from the round-1 delay range of the halving
// schedule and uniformly random wavelengths.
func roundOneWorms(in *paperInput, p core.Params, seed uint64) []sim.Worm {
	_, _, src := paperSources(seed)
	delta := core.HalvingSchedule{}.Range(1, p)
	worms := make([]sim.Worm, in.col.Size())
	for i := range worms {
		worms[i] = sim.Worm{
			ID:         i,
			Path:       in.col.Path(i),
			Length:     paperLength,
			Delay:      src.Intn(delta),
			Wavelength: src.Intn(paperBandwidth),
		}
	}
	return worms
}

// paperDigest is the SHA-256 of the result's JSON encoding: the routing
// parameters, every round's statistics and each worm's delivery round.
func paperDigest(res *core.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkPaper checks a protocol run: every worm delivered in a round of
// the run, and the result digest equal to its reference.
func checkPaper(o options, c paperConfig, book *digestBook, in *paperInput, res *core.Result, err error) error {
	if err != nil {
		return err
	}
	if !res.AllDelivered || len(res.WormRounds) != in.col.Size() {
		return fmt.Errorf("run ended with %d of %d worms undelivered", len(res.StillActive), in.col.Size())
	}
	acked := 0
	for _, st := range res.Rounds {
		acked += st.Acked
	}
	if acked != in.col.Size() {
		return fmt.Errorf("rounds acknowledged %d worms, want %d", acked, in.col.Size())
	}
	for i, t := range res.WormRounds {
		if t < 1 || t > res.TotalRounds {
			return fmt.Errorf("worm %d acknowledged in round %d of %d", i, t, res.TotalRounds)
		}
	}
	return book.check(c.label, o.seed, "result", paperDigest(res))
}
