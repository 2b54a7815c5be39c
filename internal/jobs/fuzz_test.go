package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecKey checks the content-address invariants on arbitrary spec
// JSON. For every input that decodes to a Spec whose Key succeeds: the
// normalized spec has the same key, Normalized is idempotent, and
// Normalized leaves its receiver untouched. It only validates and
// encodes specs and never materializes one (no setup), so no input can
// make it build a network or a workload.
func FuzzSpecKey(f *testing.F) {
	seeds := []Spec{
		testSpec(7, 4),
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "torus", Dims: 2, Side: 3}, Seed: 1}},
		{Route: &RouteSpec{
			Network:  NetworkSpec{Kind: "circulant", Size: 8, Offsets: []int{1, 3}},
			Workload: WorkloadSpec{Kind: "qfunction", Q: 2},
			Protocol: ProtocolSpec{Rule: "priority", Tie: "arbitrary-winner", Wreckage: "vanish", Schedule: "doubling"},
			Trials:   2,
		}},
		{Route: &RouteSpec{Network: NetworkSpec{Kind: "ring", Size: 4}, Trials: 1 << 20}},
		{Experiment: &ExperimentSpec{ID: "A4", Seed: 1, Trials: 5, Quick: true}},
		testDynamicSpec(f, 99, 3),
	}
	fixed := testDynamicSpec(f, 5, 1)
	fixed.Dynamic.Protocol.Backoff = "fixed"
	fixed.Dynamic.Protocol.BackoffCap = 9
	seeds = append(seeds, fixed)
	for _, s := range seeds {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	encode := func(t *testing.T, s Spec) []byte {
		t.Helper()
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded spec: %v", err)
		}
		return raw
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		key, err := s.Key()
		if err != nil {
			return
		}
		before := encode(t, s)
		norm := s.Normalized()
		if after := encode(t, s); !bytes.Equal(after, before) {
			t.Fatalf("Normalized mutated its receiver:\nbefore %s\n after %s", before, after)
		}
		normKey, err := norm.Key()
		if err != nil {
			t.Fatalf("normalized spec fails to key: %v", err)
		}
		if normKey != key {
			t.Fatalf("normalized spec keys to %s, spec to %s", normKey, key)
		}
		if once, twice := encode(t, norm), encode(t, norm.Normalized()); !bytes.Equal(once, twice) {
			t.Fatalf("Normalized is not idempotent:\n once %s\ntwice %s", once, twice)
		}
	})
}
