package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
)

// Handler returns the node's HTTP handler: the full jobs API with
// ownership forwarding layered on top, plus the peer-only /internal
// endpoints (work stealing, record replication, segment shipping).
// /internal is unauthenticated by design — the cluster assumes a
// private network, like the rest of the daemon's API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", n.submit)
	mux.HandleFunc("GET /jobs/{key}", n.status)
	mux.HandleFunc("GET /jobs/{key}/result", n.result)
	mux.HandleFunc("GET /metrics", n.metrics)
	mux.HandleFunc("POST /internal/steal", n.handleSteal)
	mux.HandleFunc("POST /internal/steal/complete", n.handleStealComplete)
	mux.HandleFunc("POST /internal/store", n.handleStorePut)
	// Store keys contain slashes (result/<hex>, ckpt/<hex>), hence the
	// rest-of-path wildcard.
	mux.HandleFunc("GET /internal/store/{key...}", n.handleStoreGet)
	mux.HandleFunc("GET /internal/segments", n.handleSegmentList)
	mux.HandleFunc("GET /internal/segments/{name}", n.handleSegmentGet)
	mux.HandleFunc("POST /internal/segments/{name}", n.handleSegmentPut)
	// Everything else — streams, cancels, snapshots — serves locally.
	mux.Handle("/", n.inner)
	return mux
}

// submit handles POST /jobs: forward to the key's owner when the hop
// budget allows, execute locally otherwise (including when the owner is
// unreachable — placement is best effort, availability is not).
func (n *Node) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var req jobs.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	key, err := req.Spec.Key()
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	via := r.Header.Get(viaHeader)
	if owner, ok := n.shouldForward(key, via); ok {
		st, err := n.forwardSubmit(owner, via, req)
		if err == nil {
			n.srv.WriteSubmit(w, st, nil)
			return
		}
		n.m.forwardFallbacks.Add(1)
		n.cfg.Logf("cluster: %s: forward %s to owner %s failed (%v); executing locally", n.cfg.Self, key, owner.Name, err)
	}
	st, err := n.sched.Submit(req.Spec, req.Priority)
	n.srv.WriteSubmit(w, st, err)
}

// status handles GET /jobs/{key}: serve locally known jobs, otherwise
// ask the owner.
func (n *Node) status(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, err := n.sched.Status(key); err == nil {
		n.inner.ServeHTTP(w, r)
		return
	}
	via := r.Header.Get(viaHeader)
	owner, ok := n.shouldForward(key, via)
	if !ok {
		n.inner.ServeHTTP(w, r)
		return
	}
	st, err := n.peerClient(owner, via).Status(key)
	if err != nil {
		jobs.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, st)
}

// result handles GET /jobs/{key}/result, forwarding to the owner for
// jobs this node never saw.
func (n *Node) result(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, err := n.sched.Status(key); err == nil {
		n.inner.ServeHTTP(w, r)
		return
	}
	via := r.Header.Get(viaHeader)
	owner, ok := n.shouldForward(key, via)
	if !ok {
		n.inner.ServeHTTP(w, r)
		return
	}
	res, err := n.peerClient(owner, via).Result(key)
	if err != nil {
		jobs.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, res)
}

// metrics handles GET /metrics: the jobs server's output with the
// optnetd_cluster_ counters appended.
func (n *Node) metrics(w http.ResponseWriter, r *http.Request) {
	n.inner.ServeHTTP(w, r)
	m := n.Metrics()
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("optnetd_cluster_forwards_total", "Submits forwarded to their owner.", m.Forwards)
	counter("optnetd_cluster_forward_fallbacks_total", "Submits executed locally after a failed forward.", m.ForwardFallbacks)
	counter("optnetd_cluster_trials_leased_total", "Trials handed to thieves by this owner.", m.TrialsLeased)
	counter("optnetd_cluster_trials_stolen_total", "Trials executed for other owners.", m.TrialsStolen)
	counter("optnetd_cluster_repl_records_total", "Record copies shipped to peers.", m.ReplRecords)
	counter("optnetd_cluster_repl_segments_total", "Sealed segments shipped to peers.", m.ReplSegments)
	counter("optnetd_cluster_repl_drops_total", "Replication queue overflows.", m.ReplDrops)
	counter("optnetd_cluster_repair_hits_total", "Store misses answered by a replica.", m.RepairHits)
	counter("optnetd_cluster_repair_misses_total", "Store misses no replica could answer.", m.RepairMisses)
	if err := bw.Flush(); err != nil {
		n.cfg.Logf("cluster: /metrics response truncated: %v", err)
	}
}

// handleSteal handles POST /internal/steal: grant a trial lease or 204.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req StealRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	work, ok := n.steal.steal(req)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	jobs.WriteJSON(w, http.StatusOK, work)
}

// handleStealComplete handles POST /internal/steal/complete.
func (n *Node) handleStealComplete(w http.ResponseWriter, r *http.Request) {
	var sc StealComplete
	if err := json.NewDecoder(io.LimitReader(r.Body, 256<<20)).Decode(&sc); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := n.steal.complete(sc); err != nil {
		// Gone or congested: the thief drops the batch and the lease TTL
		// re-runs the trials; nothing is lost either way.
		jobs.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleStorePut handles POST /internal/store: ingest one replicated
// record. PutRaw skips the observer, so the copy is not re-replicated.
func (n *Node) handleStorePut(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "no store on this node")
		return
	}
	var it replItem
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&it); err != nil {
		jobs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if it.Key == "" || len(it.Value) == 0 {
		jobs.WriteError(w, http.StatusBadRequest, "record needs key and value")
		return
	}
	if err := n.store.PutRaw(it.Key, it.Value); err != nil {
		jobs.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, struct{}{})
}

// handleStoreGet handles GET /internal/store/{key}: raw value or 404.
func (n *Node) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "no store on this node")
		return
	}
	raw, ok := n.store.Get(r.PathValue("key"))
	if !ok {
		jobs.WriteError(w, http.StatusNotFound, "unknown key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(raw); err != nil {
		n.cfg.Logf("cluster: /internal/store response truncated: %v", err)
	}
}

// handleSegmentList handles GET /internal/segments.
func (n *Node) handleSegmentList(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "no store on this node")
		return
	}
	infos, err := n.store.Segments()
	if err != nil {
		jobs.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, infos)
}

// handleSegmentGet handles GET /internal/segments/{name}.
func (n *Node) handleSegmentGet(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "no store on this node")
		return
	}
	data, err := n.store.ReadSegment(r.PathValue("name"))
	if err != nil {
		jobs.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		n.cfg.Logf("cluster: /internal/segments response truncated: %v", err)
	}
}

// handleSegmentPut handles POST /internal/segments/{name}?origin=peer:
// import a shipped segment (gap fill only; local data always wins).
func (n *Node) handleSegmentPut(w http.ResponseWriter, r *http.Request) {
	if n.store == nil {
		jobs.WriteError(w, http.StatusServiceUnavailable, "no store on this node")
		return
	}
	origin := r.URL.Query().Get("origin")
	data, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	added, err := n.store.ImportSegment(origin, r.PathValue("name"), data)
	if err != nil {
		jobs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	jobs.WriteJSON(w, http.StatusOK, map[string]int{"applied": added})
}
