package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
)

// TestLocalSubmitBusyMatchesJobsServer: a submit a node executes locally
// against a full queue gets exactly the jobs server's answer — the 429
// status, the Retry-After hint and the body — because both answer
// through one submit writer.
func TestLocalSubmitBusyMatchesJobsServer(t *testing.T) {
	block := make(chan struct{})
	release := make(chan struct{})
	exec := &jobs.Executor{
		Experiments: func(id string, seed uint64, trials int, quick bool) (json.RawMessage, string, error) {
			if id == "blocker" {
				close(block)
				<-release
			}
			return json.RawMessage(`{}`), "", nil
		},
	}
	// A one-member cluster owns every key, so its submits run locally.
	node, err := New(Config{Self: "solo", Peers: []Peer{{Name: "solo", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	node.Wire(exec)
	sched := jobs.NewScheduler(exec, jobs.Options{Workers: 1, QueueSize: 1, RetryAfter: 3 * time.Second})
	defer sched.Close()
	defer close(release)
	node.Start(sched, nil)
	defer node.Close()

	// Wedge the only worker, then fill the one queue slot.
	if _, err := sched.Submit(jobs.Spec{Experiment: &jobs.ExperimentSpec{ID: "blocker"}}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-block:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the blocking job")
	}
	if _, err := sched.Submit(jobs.Spec{Experiment: &jobs.ExperimentSpec{ID: "filler"}}, 0); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(jobs.SubmitRequest{Spec: jobs.Spec{Experiment: &jobs.ExperimentSpec{ID: "overflow"}}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(h http.Handler) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		return rr
	}
	want := post((&jobs.Server{Sched: sched}).Handler())
	got := post(node.Handler())
	if want.Code != http.StatusTooManyRequests || want.Header().Get("Retry-After") != "3" {
		t.Fatalf("jobs server answered %d with Retry-After %q, want 429 and \"3\"", want.Code, want.Header().Get("Retry-After"))
	}
	if got.Code != want.Code {
		t.Errorf("node status %d, jobs server %d", got.Code, want.Code)
	}
	for _, h := range []string{"Retry-After", "Content-Type"} {
		if got.Header().Get(h) != want.Header().Get(h) {
			t.Errorf("node %s %q, jobs server %q", h, got.Header().Get(h), want.Header().Get(h))
		}
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("node body %q, jobs server %q", got.Body.Bytes(), want.Body.Bytes())
	}
}
