package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request classes of the serve_mix load, in cohort order.
const (
	classHit   = iota // a pool spec sent to its owner: a cache hit
	classCold         // a new small spec sent to its owner
	classFwd          // a pool spec sent to the node that does not own it
	classSweep        // a new large sweep sent to its owner
	numClasses
)

var classNames = [numClasses]string{"hit", "cold", "fwd", "sweep"}

// The shape of the serve_mix load, the same at every size.
var (
	serveNodes = []string{"a", "b"} // cluster member names
	coldSides  = []int{6, 7, 8}     // torus sides of cold and pool specs, drawn uniformly
)

const (
	coldTrials = 4
	// stepUnit is the time step of the generated arrival trace.
	stepUnit = 100 * time.Microsecond
)

// serveConfig sizes the serve_mix workload.
type serveConfig struct {
	// rate is the offered rate in requests per second of all classes but
	// sweeps. It is split equally between hit, cold and fwd requests: no
	// record of real optnetd traffic exists to weight one class over
	// another.
	rate float64
	// sweepEvery spaces sweeps evenly through the run, from a phase drawn
	// from the seed. A Poisson count of the few sweeps a run holds would
	// swing the other classes' latencies from run to run.
	sweepEvery time.Duration

	pool        int // specs in the hit pool
	sweepSide   int
	sweepTrials int
	setups      int // set-ups per run; setup_s is their median
	checked     int // distinct results re-run on an in-process executor
}

// fullServeMix is the serve_mix workload: open-loop Poisson arrivals
// against two nodes at one offered rate. bench/layers.json gives the rule
// behind each size.
func fullServeMix() serveConfig {
	return serveConfig{
		rate:        60,
		sweepEvery:  5 * time.Second,
		pool:        64,
		sweepSide:   16,
		sweepTrials: 32,
		setups:      11,
		checked:     24,
	}
}

// routeSpec is a small route job on a 2-D torus: a random permutation
// routed with B=2, L=4 and ack length 1.
func routeSpec(side, trials int, seed uint64) jobs.Spec {
	return jobs.Spec{Route: &jobs.RouteSpec{
		Network:  jobs.NetworkSpec{Kind: "torus", Dims: 2, Side: side},
		Workload: jobs.WorkloadSpec{Kind: "permutation"},
		Protocol: jobs.ProtocolSpec{Bandwidth: 2, Length: 4, AckLength: 1},
		Seed:     seed,
		Trials:   trials,
	}}
}

// sweepSpec is a large sweep: four messages per node (a random
// 4-function) with L=8. On one node of a 2-CPU host a 16x16, 32-trial
// sweep takes longer than the 250ms steal poll, so an idle peer always
// gets a chance to steal from it.
func sweepSpec(side, trials int, seed uint64) jobs.Spec {
	s := routeSpec(side, trials, seed)
	s.Route.Workload = jobs.WorkloadSpec{Kind: "qfunction", Q: 4}
	s.Route.Protocol.Length = 8
	return s
}

// request is one scheduled operation: submit, wait for completion, fetch
// the result.
type request struct {
	class  int
	at     time.Duration // offset from the run's start
	spec   jobs.Spec
	key    string
	target int // node index
}

// outcome is one finished request.
type outcome struct {
	latency time.Duration // from the scheduled send to the result
	lag     time.Duration // from the scheduled send to the actual one
	wait    time.Duration // waiting for a client connection, summed over its HTTP exchanges
	err     error
	refused bool
	done    bool // the submit answered with the job already done
}

// loadgen drives open-loop load against a cluster with at most one
// connection per CPU and checks every result.
type loadgen struct {
	c  *serveCluster
	tr *http.Transport

	mu sync.Mutex
	// first holds the digest of each key's first result body; keeping
	// the bodies would make the generator's own heap a large, varying
	// part of peak_rss_mb.
	first map[string][sha256.Size]byte
	specs map[string]jobs.Spec
}

// newLoadgen returns a generator for the cluster. Connections are capped
// per node so their total stays at most runtime.NumCPU().
func newLoadgen(c *serveCluster) *loadgen {
	perNode := runtime.NumCPU() / len(c.nodes)
	if perNode < 1 {
		perNode = 1
	}
	return &loadgen{c: c, tr: &http.Transport{MaxConnsPerHost: perNode, MaxIdleConnsPerHost: perNode},
		first: map[string][sha256.Size]byte{}, specs: map[string]jobs.Spec{}}
}

// close drops the generator's idle connections.
func (g *loadgen) close() { g.tr.CloseIdleConnections() }

// waitTransport sums the time one request's HTTP exchanges wait for a
// connection of the shared transport.
type waitTransport struct {
	base http.RoundTripper
	wait atomic.Int64 // nanoseconds
}

// RoundTrip implements http.RoundTripper.
func (w *waitTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { w.wait.Add(int64(time.Since(start))) }}
	return w.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
}

// do runs one request scheduled for due.
func (g *loadgen) do(q request, due time.Time) outcome {
	start := time.Now()
	out := outcome{lag: start.Sub(due)}
	out.done, out.wait, out.err = g.exchange(q)
	if out.err != nil && strings.Contains(out.err.Error(), "HTTP 429") {
		out.refused = true
	}
	out.latency = time.Since(due)
	return out
}

// exchange submits, polls until the job is done, fetches the result and
// checks it against the key's first completion. done reports whether the
// submit found the job already done, wait how long the exchanges waited
// for a connection. A 429 is not retried, so a refusal is an error.
func (g *loadgen) exchange(q request) (done bool, wait time.Duration, err error) {
	wt := &waitTransport{base: g.tr}
	hc := &http.Client{Transport: wt, Timeout: 30 * time.Second}
	url := g.c.peers[q.target].URL
	cl := &jobs.Client{BaseURL: url, HTTPClient: hc, RetryBudget: -1}
	defer func() { wait = time.Duration(wt.wait.Load()) }() // on every return
	submitted := time.Now()
	st, err := cl.Submit(q.spec, 0)
	done = err == nil && st.State == jobs.StateDone
	for err == nil && st.State != jobs.StateDone {
		if st.State == jobs.StateFailed || st.State == jobs.StateCanceled {
			return false, 0, fmt.Errorf("job %.12s %s: %s", q.key, st.State, st.Error)
		}
		waited := time.Since(submitted)
		if waited > 30*time.Second {
			return false, 0, fmt.Errorf("job %.12s still %s after %v", q.key, st.State, waited)
		}
		time.Sleep(pollInterval(waited))
		st, err = cl.Status(q.key)
	}
	if err != nil {
		return false, 0, err
	}
	body, err := result(hc, url, q.key)
	if err != nil {
		return false, 0, err
	}
	return done, 0, g.compare(q.key, q.spec, body)
}

// pollInterval spaces status polls at a quarter of the time waited so
// far, between 0.5ms and 20ms: polling keeps a long job from holding one
// of the few connections, at a cost of at most a quarter of its latency.
func pollInterval(waited time.Duration) time.Duration {
	d := waited / 4
	if d < 500*time.Microsecond {
		d = 500 * time.Microsecond
	}
	if d > 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	return d
}

// result fetches the finished job's result body.
func result(hc *http.Client, url, key string) ([]byte, error) {
	resp, err := hc.Get(url + "/jobs/" + key + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %.12s: HTTP %d: %s", key, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// compare checks a result body against the key's first completion.
func (g *loadgen) compare(key string, spec jobs.Spec, body []byte) error {
	sum := sha256.Sum256(body)
	g.mu.Lock()
	defer g.mu.Unlock()
	first, ok := g.first[key]
	if !ok {
		g.first[key] = sum
		g.specs[key] = spec
		return nil
	}
	if sum != first {
		return fmt.Errorf("result %.12s differs from its first completion", key)
	}
	return nil
}

// run dispatches the requests on schedule, waits for all of them and
// returns their outcomes in request order.
func (g *loadgen) run(reqs []request) []outcome {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			outs[i] = g.do(reqs[i], due)
		}(i, due)
	}
	wg.Wait()
	return outs
}

// verify re-runs a sample of the completed keys on an in-process
// executor without store or cluster and compares the encoded results
// byte for byte with the served ones. Every class with results is
// sampled.
func (g *loadgen) verify(n int, classOf map[string]int, r *report) {
	g.mu.Lock()
	keys := make([]string, 0, len(g.first))
	for k := range g.first {
		keys = append(keys, k)
	}
	g.mu.Unlock()
	sort.Strings(keys)
	var picked []string
	seen := map[int]bool{}
	for _, k := range keys { // one of each class first
		if c := classOf[k]; !seen[c] {
			seen[c] = true
			picked = append(picked, k)
		}
	}
	for i := 0; len(picked) < n && i < len(keys); i += 1 + len(keys)/n {
		picked = append(picked, keys[i])
	}
	exec := &jobs.Executor{}
	for _, k := range picked {
		res, _, err := exec.Run(g.specs[k], sim.NewEngine(), nil, nil)
		if err == nil {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err = enc.Encode(res); err == nil && sha256.Sum256(buf.Bytes()) != g.first[k] {
				err = fmt.Errorf("served result %.12s differs from an in-process run", k)
			}
		}
		r.op(err)
	}
}

// serveWindow is the length of the windows, by scheduled send time,
// whose latencies latency_s takes the median of: a host stall shorter
// than half a stretch then moves only the windows it falls in, not the
// median window.
const serveWindow = 3 * time.Second

// serveStats summarizes one measured stretch of load.
type serveStats struct {
	lat      [numClasses][]float64 // ms, successful requests
	windows  [][2][]float64        // ms, successful hit and fwd requests per serveWindow
	fails    [numClasses]int
	refused  int
	done     int       // submits that found the job already done
	lags     []float64 // ms
	waits    []float64 // ms, connection wait of hit and fwd requests
	rate     float64   // requests per second actually offered
	duration time.Duration
}

// summarize folds the outcomes of a stretch of duration d.
func summarize(reqs []request, outs []outcome, d time.Duration) *serveStats {
	s := &serveStats{duration: d, rate: float64(len(reqs)) / d.Seconds()}
	for i, o := range outs {
		c := reqs[i].class
		s.lags = append(s.lags, millis(o.lag))
		if o.refused {
			s.refused++
		}
		if o.done {
			s.done++
		}
		if o.err != nil {
			s.fails[c]++
			continue
		}
		s.lat[c] = append(s.lat[c], millis(o.latency))
		if c == classHit || c == classFwd {
			s.waits = append(s.waits, millis(o.wait))
			w := int(reqs[i].at / serveWindow)
			for len(s.windows) <= w {
				s.windows = append(s.windows, [2][]float64{})
			}
			k := 0
			if c == classFwd {
				k = 1
			}
			s.windows[w][k] = append(s.windows[w][k], millis(o.latency))
		}
	}
	return s
}

// servePlan builds request lists from the seed: the hit pool and the
// arrivals of a workload trace.
type servePlan struct {
	cfg   serveConfig
	seed  uint64
	specs *rng.Source // seeds of new specs, in arrival order
	pool  []jobs.Spec
	keys  []string
	gen   time.Duration // trace generation time
	keyNS []float64     // Spec.Key times, ns
}

func newServePlan(cfg serveConfig, seed uint64) *servePlan {
	p := &servePlan{cfg: cfg, seed: seed, specs: rng.New(seed).Split()}
	for i := 0; i < cfg.pool; i++ {
		side := coldSides[i%len(coldSides)]
		p.pool = append(p.pool, routeSpec(side, coldTrials, p.specs.Uint64()))
	}
	return p
}

// key computes a spec's job key, timing the call.
func (p *servePlan) key(s jobs.Spec) (string, error) {
	t0 := time.Now()
	k, err := s.Key()
	p.keyNS = append(p.keyNS, float64(time.Since(t0)))
	return k, err
}

// poolKeys computes the pool's job keys.
func (p *servePlan) poolKeys() error {
	p.keys = p.keys[:0]
	for _, s := range p.pool {
		k, err := p.key(s)
		if err != nil {
			return err
		}
		p.keys = append(p.keys, k)
	}
	return nil
}

// requests builds the requests of a stretch of duration dur; part
// numbers the stretches of one run, each with its own arrivals.
func (p *servePlan) requests(part int, dur time.Duration, c *serveCluster) ([]request, error) {
	cfg := p.cfg
	perStep := cfg.rate / 3 * stepUnit.Seconds()
	spec := workload.Spec{Nodes: cfg.pool, Horizon: int(dur / stepUnit), Seed: p.seed*31 + uint64(part) + 1}
	for c := classHit; c <= classFwd; c++ {
		spec.Cohorts = append(spec.Cohorts, workload.Cohort{Name: classNames[c],
			Arrivals: workload.ArrivalSpec{Kind: workload.KindPoisson, Rate: perStep}})
	}
	t0 := time.Now()
	tr, err := spec.Generate()
	p.gen += time.Since(t0)
	if err != nil {
		return nil, err
	}
	arrivals := tr.Arrivals
	phase := time.Duration(rng.New(spec.Seed).Float64() * float64(cfg.sweepEvery))
	for at := phase; at < dur; at += cfg.sweepEvery {
		arrivals = append(arrivals, workload.Arrival{Step: int(at / stepUnit), Cohort: classSweep})
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Step < arrivals[j].Step })
	reqs := make([]request, 0, len(arrivals))
	for _, a := range arrivals {
		q := request{class: a.Cohort, at: time.Duration(a.Step) * stepUnit}
		switch a.Cohort {
		case classHit, classFwd:
			q.spec, q.key = p.pool[a.Src], p.keys[a.Src]
		case classCold:
			q.spec = routeSpec(coldSides[a.Src%len(coldSides)], coldTrials, p.specs.Uint64())
		case classSweep:
			q.spec = sweepSpec(cfg.sweepSide, cfg.sweepTrials, p.specs.Uint64())
		}
		if q.key == "" {
			if q.key, err = p.key(q.spec); err != nil {
				return nil, err
			}
		}
		q.target = c.owner(q.key)
		if a.Cohort == classFwd {
			q.target = (q.target + 1) % len(c.nodes)
		}
		reqs = append(reqs, q)
	}
	return reqs, nil
}

// serveSetup starts a cluster and fills the hit pool through it; the
// returned duration is both nodes' start plus the prefill.
func serveSetup(o options, p *servePlan, run int, tr *layerTrace, r *report) (*serveCluster, *loadgen, time.Duration, error) {
	dir, err := filepath.Abs(filepath.Join(o.state, fmt.Sprintf("serve-%d-%d", os.Getpid(), run)))
	if err != nil {
		return nil, nil, 0, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, 0, err
	}
	settle() // every set-up starts from the same heap state
	t0 := time.Now()
	c, err := startCluster(dir, serveNodes, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	g := newLoadgen(c)
	for i, s := range p.pool {
		q := request{class: classHit, spec: s, key: p.keys[i], target: c.owner(p.keys[i])}
		_, _, err := g.exchange(q)
		r.op(err)
	}
	return c, g, time.Since(t0), nil
}

// runServeMix measures the load. Untraced, it reports the median set-up
// time and latency_s, the windowed hit and fwd p50 latency over the whole
// budget, and prints each class's figures. Traced, it runs half
// the budget untraced, then half, profiled, on a cluster whose handlers
// and peer client are wrapped with spans.
func runServeMix(o options, cfg serveConfig, r *report) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	p := newServePlan(cfg, o.seed)
	if err := p.poolKeys(); err != nil {
		return err
	}
	n := cfg.setups
	if o.trace {
		n = 1 // set-up time is an end-to-end metric, reported untraced
		budget /= 2
	}
	var setups []float64
	var c *serveCluster
	var g *loadgen
	shutdown := func() {
		if c != nil {
			g.close()
			c.close()
			c, g = nil, nil
		}
	}
	defer shutdown()
	// Every set-up comes before the load: after it, the loaded stores'
	// writeback and the larger heap slow set-ups by a varying amount.
	for i := 0; i < n; i++ {
		shutdown()
		var d time.Duration
		var err error
		if c, g, d, err = serveSetup(o, p, i, nil, r); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	classOf := map[string]int{}
	measure := func(part int) (*serveStats, error) {
		var reqs []request
		var outs []outcome
		var err error
		// The generator's own CPU, spec keys included, is labelled so
		// that a traced run's profile tells it from the servers'.
		withLabel(roleLabel, loadgenRole, func() {
			if reqs, err = p.requests(part, budget, c); err == nil {
				outs = g.run(reqs)
			}
		})
		if err != nil {
			return nil, err
		}
		for _, q := range reqs {
			classOf[q.key] = q.class
		}
		for _, out := range outs {
			r.op(out.err)
		}
		return summarize(reqs, outs, budget), nil
	}

	base, err := measure(0)
	if err != nil {
		return err
	}
	if !o.trace {
		g.verify(cfg.checked, classOf, r)
		r.set("setup_s", median(setups), "s")
		r.set("latency_s", base.latency(), "s")
		r.show("hit_p50_ms", median(base.lat[classHit]), "ms")
		r.show("fwd_p50_ms", median(base.lat[classFwd]), "ms")
		r.info = append(r.info, describeServe(base)...)
		return nil
	}

	shutdown()
	tr := newLayerTrace()
	if c, g, _, err = serveSetup(o, p, n, tr, r); err != nil {
		return err
	}
	p.keyNS = p.keyNS[:0]
	before := readRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	traced, err := measure(1)
	cpu, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	setRuntimeMetrics(r, before, readRuntime())
	setProfileMetrics(r, cpu)
	r.set("trace_overhead", traced.latency()/base.latency(), "ratio")
	r.info = append(r.info, describeServe(traced)...)
	g.verify(cfg.checked, classOf, r)
	setServeLayers(r, p, c, tr, traced)
	return nil
}

// latency is the stretch's latency_s in seconds: over the serveWindow
// windows, the median of each window's mean of its hit and fwd p50
// latencies. Pooling the two classes into one median would put it in the
// gap between their distributions, where it is unsteady.
func (s *serveStats) latency() float64 {
	var xs []float64
	for _, w := range s.windows {
		if len(w[0]) > 0 && len(w[1]) > 0 {
			xs = append(xs, (median(w[0])+median(w[1]))/2)
		}
	}
	return median(xs) / 1e3
}

// setServeLayers prints the serving stack's own per-layer figures.
func setServeLayers(r *report, p *servePlan, c *serveCluster, tr *layerTrace, s *serveStats) {
	r.show("canon.key_us", median(p.keyNS)/1e3, "us")
	r.show("workload.gen_ms", millis(p.gen), "ms")
	lagTail, _ := tail(s.lags)
	r.show("loadgen.lag_p50_ms", median(s.lags), "ms")
	r.show("loadgen.lag_tail_ms", lagTail, "ms")
	r.show("loadgen.conn_wait_p50_ms", median(s.waits), "ms")

	var misses uint64
	records, segments := 0, 0
	var forwards, stolen, replicated uint64
	for _, n := range c.nodes {
		misses += n.sched.Metrics().CacheMisses
		records += n.store.Len()
		if segs, err := n.store.Segments(); err == nil {
			segments += len(segs)
		} else {
			r.op(err)
		}
		cm := n.node.Metrics()
		forwards += cm.Forwards
		stolen += cm.TrialsStolen
		replicated += cm.ReplRecords + cm.ReplSegments
	}
	// Scheduler.Metrics counts as hits only store hits of jobs the
	// scheduler has not seen; repeats of a job it still holds are joined
	// without counting, so the hit ratio is taken at the client.
	r.show("jobs.cache_misses", float64(misses), "count")
	r.show("jobs.hit_ratio", float64(s.done)/float64(len(s.lags)), "fraction")
	r.show("jobs.store_records", float64(records), "count")
	r.show("jobs.store_segments", float64(segments), "count")
	r.show("cluster.forwards", float64(forwards), "count")
	r.show("cluster.trials_stolen", float64(stolen), "count")
	r.show("cluster.replicated", float64(replicated), "count")

	tr.mu.Lock()
	defer tr.mu.Unlock()
	r.show("cluster.steal_leases", float64(tr.leases), "count")
	for _, name := range []string{"cluster.forward_ms", "cluster.steal_ms", "cluster.replicate_ms"} {
		r.show(name, median(tr.spans[name]), "ms")
	}
	for _, n := range c.nodes {
		for _, ep := range []string{"jobs.http_submit_ms.", "jobs.http_result_ms."} {
			r.show(ep+n.name, median(tr.spans[ep+n.name]), "ms")
		}
	}
}

// describeServe describes a stretch's figures for people. The cold p50,
// the tails and the sweep median are printed but not gated: on a small
// host a few 300ms sweeps and host stalls swing them by more than any
// bound from run to run.
func describeServe(s *serveStats) []string {
	lines := []string{fmt.Sprintf("%.0f/s offered over %v, refused %d; per class (latency_s: median over %v windows of the mean hit and fwd p50):",
		s.rate, s.duration, s.refused, serveWindow)}
	for c := 0; c < numClasses; c++ {
		t, level := tail(s.lat[c])
		lines = append(lines, fmt.Sprintf("  %-5s n=%-6d failed=%-3d p50=%8.3fms p%g=%8.3fms",
			classNames[c], len(s.lat[c]), s.fails[c], median(s.lat[c]), level*100, t))
	}
	lt, level := tail(s.lags)
	return append(lines, fmt.Sprintf("  generator lag p50=%.3fms p%g=%.3fms, connection wait of hit and fwd p50=%.3fms",
		median(s.lags), level*100, lt, median(s.waits)))
}
