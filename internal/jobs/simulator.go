package jobs

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Simulator is the per-worker executor a Scheduler hands its jobs: the
// protocol rounds of core.Simulator plus open-loop trace replays. The
// scheduler gives each worker a *shardsim.ClusterSimulator, which runs
// on its plain engine when Options.Shards <= 1; a *sim.Engine also
// implements it. Both produce byte-identical results for the same
// spec, so sharding never rekeys a job — content addresses, checkpoints,
// and cached results carry over unchanged between shard counts.
//
// Implementations own the returned results until the next call and are
// not safe for concurrent use, matching sim.Engine; the scheduler gives
// each worker goroutine its own instance.
type Simulator interface {
	core.Simulator
	RunDynamic(g *graph.Graph, reqs []sim.Request, cfg sim.DynamicConfig, src *rng.Source) (*sim.DynamicResult, error)
}
