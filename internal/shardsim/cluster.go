package shardsim

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ClusterSimulator runs simulations partitioned across N engine shards
// in lockstep under one deterministic clock. Results are byte-identical
// to the single-engine reference: configurations outside the sharded
// fast path (rules other than ServeFirst, Vanish wreckage, probes that
// are not telemetry Collectors) transparently fall back to the plain
// engine, so callers never need to pre-check eligibility.
//
// A ClusterSimulator is not safe for concurrent use; the job layer
// already gives each worker its own simulator, matching how plain
// engines are owned today.
type ClusterSimulator struct {
	shards int
	eng    *sim.Engine
	// sr carries the cached partition's link owners into every sharded
	// run; the renumbered key layout and the boundary-word count it
	// derives from them are built once per partition (and bandwidth),
	// not per run.
	sr sim.ShardedRun

	mu sync.Mutex
	// part caches the partition of the last graph seen, keyed by the
	// graph value itself: sweeps run thousands of trials on one topology,
	// and the partitioner walks every node. The cache is guarded for the
	// benefit of read-only inspection (Partition) from monitoring code.
	partGraph *graph.Graph //optlint:guardedby mu
	part      *Partition   //optlint:guardedby mu

	// slotCols are the per-shard collectors fed by the lockstep runner's
	// slot events; they are folded into the caller's collector after each
	// run and reset, so they carry no state between runs.
	slotCols []*telemetry.Collector
}

// New returns a simulator splitting work across the given number of
// shards. shards < 1 is treated as 1 (the plain single-engine path).
func New(shards int) *ClusterSimulator {
	if shards < 1 {
		shards = 1
	}
	return &ClusterSimulator{shards: shards, eng: sim.NewEngine()}
}

// Shards reports the configured shard count.
func (c *ClusterSimulator) Shards() int { return c.shards }

// Partition returns the cached partition for g, computing it on first
// use. The partition is a pure function of the graph, so the cache never
// goes stale while the graph is unchanged (graphs are immutable after
// construction everywhere in this codebase).
func (c *ClusterSimulator) Partition(g *graph.Graph) *Partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partGraph != g || c.part == nil {
		c.part = PartitionGraph(g, c.shards)
		c.partGraph = g
	}
	return c.part
}

// BoundaryHandoffs reports the cumulative worm-head handoffs exchanged
// between shards across all sharded runs of this simulator.
func (c *ClusterSimulator) BoundaryHandoffs() uint64 { return c.sr.BoundaryHandoffs }

// BoundaryWords reports the cumulative packed occupancy words shipped
// between shards across all sharded runs.
func (c *ClusterSimulator) BoundaryWords() uint64 { return c.sr.BoundaryWords }

// Run simulates one batch of worms. Eligible configurations execute on
// the lockstep sharded runner; everything else falls back to the plain
// engine. Either way the returned result is byte-identical to what
// sim.Run would produce, and remains owned by the simulator until the
// next Run call (the same contract as Engine.Run).
func (c *ClusterSimulator) Run(g *graph.Graph, worms []sim.Worm, cfg sim.Config) (*sim.Result, error) {
	col, colOK := cfg.Probe.(*telemetry.Collector)
	if c.shards == 1 || !sim.ShardedSupported(cfg) || (cfg.Probe != nil && !colOK) {
		return c.eng.Run(g, worms, cfg)
	}
	p := c.Partition(g)
	c.sr.Shards = p.Shards
	c.sr.LinkOwner = p.LinkOwner
	if col != nil {
		if len(c.slotCols) != p.Shards {
			c.slotCols = make([]*telemetry.Collector, p.Shards)
			for s := range c.slotCols {
				c.slotCols[s] = telemetry.NewCollector()
			}
		}
		if cap(c.sr.SlotProbes) < p.Shards {
			c.sr.SlotProbes = make([]telemetry.Probe, p.Shards)
		}
		c.sr.SlotProbes = c.sr.SlotProbes[:p.Shards]
		for s, sc := range c.slotCols {
			sc.Provision(g.NumLinks(), cfg.Bandwidth)
			c.sr.SlotProbes[s] = sc
		}
	} else {
		c.sr.SlotProbes = nil
	}
	before := [2]uint64{c.sr.BoundaryHandoffs, c.sr.BoundaryWords}
	res, err := c.eng.RunSharded(g, worms, cfg, &c.sr)
	if col != nil {
		// Fold the per-shard slot streams and this run's boundary traffic
		// into the caller's collector even on error: partial observations
		// match what a single engine would have recorded before failing.
		for _, sc := range c.slotCols {
			col.Merge(sc)
			sc.Reset()
		}
		col.AddBoundaryTraffic(c.sr.BoundaryHandoffs-before[0], c.sr.BoundaryWords-before[1])
	}
	return res, err
}

// RunDynamic simulates continuous operation with retries. Dynamic runs
// interleave per-request bookkeeping with stepping and are dominated by
// small launch batches, so they execute on the plain engine; the method
// exists so the cluster simulator satisfies the job layer's Simulator
// interface without callers special-casing trace-backed specs.
func (c *ClusterSimulator) RunDynamic(g *graph.Graph, reqs []sim.Request, cfg sim.DynamicConfig, src *rng.Source) (*sim.DynamicResult, error) {
	return sim.RunDynamicWithEngine(c.eng, g, reqs, cfg, src)
}
