package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// serveNode is one in-process optnetd cluster member, assembled the way
// cmd/optnetd assembles it for -peers with every other flag at its
// default: one worker, one shard, a queue of 64, Retry-After 1s, one
// replica, steal interval 250ms, steal batch 8 and at most 2 hops. The
// store lives in the benchmark's own directory.
type serveNode struct {
	name  string
	store *jobs.Store
	sched *jobs.Scheduler
	node  *cluster.Node
	srv   *http.Server
	done  chan struct{} // closed when Serve returns
}

// serveCluster is the two-node cluster the serve_mix load runs against.
type serveCluster struct {
	nodes []*serveNode
	peers []cluster.Peer
	dir   string
}

// startCluster starts the nodes on loopback ports, with stores under dir.
// A non-nil trace wraps each node's handler and its peer HTTP client.
func startCluster(dir string, names []string, tr *layerTrace) (*serveCluster, error) {
	c := &serveCluster{dir: dir}
	var lns []net.Listener
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		c.peers = append(c.peers, cluster.Peer{Name: name, URL: "http://" + ln.Addr().String()})
	}
	for i, name := range names {
		n, err := startNode(filepath.Join(dir, name), name, c.peers, lns[i], tr)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// startNode assembles and serves one node on ln.
func startNode(dir, name string, peers []cluster.Peer, ln net.Listener, tr *layerTrace) (*serveNode, error) {
	store, err := jobs.Open(dir)
	if err != nil {
		return nil, err
	}
	live := telemetry.NewLive()
	exec := &jobs.Executor{Store: store, Experiments: experiments.JobRunner(), Live: live}
	cfg := cluster.Config{
		Self:          name,
		Peers:         peers,
		Replicas:      1,
		StealInterval: 250 * time.Millisecond,
		StealBatch:    8,
		MaxHops:       2,
		Now:           time.Now,
	}
	if tr != nil {
		cfg.HTTPClient = tr.peerClient()
	}
	node, err := cluster.New(cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	node.Wire(exec)
	sched := jobs.NewScheduler(exec, jobs.Options{
		Workers:    1,
		Shards:     1,
		QueueSize:  64,
		RetryAfter: time.Second,
		Now:        time.Now,
	})
	node.Start(sched, live)
	handler := node.Handler()
	if tr != nil {
		handler = tr.handler(name, handler)
	}
	n := &serveNode{name: name, store: store, sched: sched, node: node,
		srv: &http.Server{Handler: handler}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := n.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "optbench: node %s: %v\n", name, err)
		}
	}()
	return n, nil
}

// close stops the cluster: first every node's background loops, so no
// replication or steal is in flight to a stopped peer, then the servers,
// the schedulers and the stores; then it removes the stores.
func (c *serveCluster) close() {
	for _, n := range c.nodes {
		n.node.Close()
	}
	// Peer traffic goes through http.DefaultClient. A connection it dialed
	// but never used reads as new, not idle, to a server, whose Shutdown
	// then waits up to 5s for it; closing the idle ones ends that wait.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, n := range c.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			n.srv.Close()
		}
		cancel()
		<-n.done
	}
	for _, n := range c.nodes {
		n.sched.Close()
		if err := n.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "optbench: node %s: closing store: %v\n", n.name, err)
		}
	}
	os.RemoveAll(c.dir)
}

// owner returns the index of the node owning key.
func (c *serveCluster) owner(key string) int {
	p, _ := cluster.Owner(c.peers, key)
	for i, q := range c.peers {
		if q.Name == p.Name {
			return i
		}
	}
	return 0
}

// layerTrace records spans at the serving layers' boundaries: each
// node's submit and result handlers and every peer HTTP exchange.
type layerTrace struct {
	mu     sync.Mutex
	spans  map[string][]float64 // span name -> durations in ms
	leases int                  // steal requests answered with a lease
}

func newLayerTrace() *layerTrace { return &layerTrace{spans: map[string][]float64{}} }

// add records one span.
func (t *layerTrace) add(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], millis(d))
	t.mu.Unlock()
}

// handler wraps a node's handler, timing submits and result fetches.
func (t *layerTrace) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			name = "jobs.http_submit_ms." + node
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result"):
			name = "jobs.http_result_ms." + node
		default:
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, time.Since(t0))
	})
}

// peerClient returns an HTTP client for cluster peer traffic that times
// each exchange, up to the response headers, by endpoint.
func (t *layerTrace) peerClient() *http.Client {
	return &http.Client{Transport: &timedTransport{t: t, base: http.DefaultTransport}}
}

// timedTransport is the peer client's round tripper.
type timedTransport struct {
	t    *layerTrace
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := tt.base.RoundTrip(req)
	d := time.Since(t0)
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/internal/steal"):
		tt.t.add("cluster.steal_ms", d)
		if err == nil && p == "/internal/steal" && resp.StatusCode == http.StatusOK {
			tt.t.mu.Lock()
			tt.t.leases++
			tt.t.mu.Unlock()
		}
	case strings.HasPrefix(p, "/internal/store"), strings.HasPrefix(p, "/internal/segments"):
		tt.t.add("cluster.replicate_ms", d)
	case strings.HasPrefix(p, "/jobs"):
		tt.t.add("cluster.forward_ms", d)
	}
	return resp, err
}
