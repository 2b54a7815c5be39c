package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Toy sizes of the three workloads: the harness self-test runs each in
// seconds.

func toyTables() tablesConfig {
	c := fullTables()
	c.label = "tables-toy"
	c.ids = []string{"E2", "E8"}
	c.quick = true
	c.named = []string{"E2", "E8"}
	c.setups = 2
	return c
}

func toyPaperScale() paperConfig {
	c := fullPaperScale()
	c.label = "paper_scale-toy"
	c.side, c.worms = 32, 1024
	c.setups = 2
	return c
}

func toyServeMix() serveConfig {
	c := fullServeMix()
	c.rate = 20
	c.pool = 8
	c.sweepSide, c.sweepTrials = 8, 12
	c.sweepEvery = time.Second
	c.setups, c.checked = 2, 6
	return c
}

var toyWorkloads = map[string]workloadFunc{
	"tables":      func(o options, r *report) error { return runTables(o, toyTables(), r) },
	"paper_scale": func(o options, r *report) error { return runPaperScale(o, toyPaperScale(), r) },
	"serve_mix":   func(o options, r *report) error { return runServeMix(o, toyServeMix(), r) },
}

// layersFile is the part of layers.json the self-test reads.
type layersFile struct {
	HeldOutSeed uint64 `json:"held_out_seed"`
}

func readLayers(t *testing.T) layersFile {
	t.Helper()
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lf layersFile
	if err := json.Unmarshal(data, &lf); err != nil {
		t.Fatal(err)
	}
	return lf
}

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readManifest returns the workload names and the end-to-end and
// per-layer metrics BENCHMARK.json declares.
func readManifest(t *testing.T) (workloads []string, e2e, layers []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, x := range m.EndToEnd {
		e2e = append(e2e, metricSpec{x.Name, x.Unit})
	}
	for _, x := range m.PerLayer {
		layers = append(layers, metricSpec{x.Name, x.Unit})
	}
	return workloads, e2e, layers
}

// runToy runs one toy workload and decodes the report on its last line.
func runToy(t *testing.T, name string, seed uint64, trace bool, state string) (report, string, error) {
	t.Helper()
	o := options{workload: name, seed: seed, seconds: 3, trace: trace, state: state}
	var out bytes.Buffer
	err := run(o, toyWorkloads[name], &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		t.Fatalf("%s: last line is not a report: %v\n%s", name, jerr, out.String())
	}
	return rep, out.String(), err
}

// TestEveryMetricPrintsWithUnit checks that the harness declares the
// metrics and workloads BENCHMARK.json names, then runs every workload at
// toy size, traced and untraced, and checks that it reports exactly those
// metrics, each in its unit, in the JSON line and for people.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	names, e2e, layers := readManifest(t)
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) || fmt.Sprint(layers) != fmt.Sprint(perLayer) {
		t.Fatalf("BENCHMARK.json declares\n %v\n %v\nthe harness\n %v\n %v", e2e, layers, endToEnd, perLayer)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[paper_scale serve_mix tables]" {
		t.Fatalf("BENCHMARK.json workloads %v", names)
	}
	state := t.TempDir()
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			rep, text, err := runToy(t, name, 1, trace, state)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, text)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, v, m.unit)
				}
				if !strings.Contains(text, m.name) || !strings.Contains(text, " "+m.unit) {
					t.Errorf("%s: metric %s not printed with its unit", name, m.name)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}

// TestCorruptDigestFails checks that an output whose recorded digest does
// not match counts as a failed operation and makes the run fail.
func TestCorruptDigestFails(t *testing.T) {
	saved := recordedDigests
	defer func() { recordedDigests = saved }()
	bad := digestTable{
		"tables-toy":      {"1": {"E2": "00", "E8": "00"}},
		"paper_scale-toy": {"1": {"result": "00"}},
	}
	var err error
	if recordedDigests, err = json.Marshal(bad); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tables", "paper_scale"} {
		rep, text, err := runToy(t, name, 1, false, t.TempDir())
		if !errors.Is(err, errFailed) || rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted digest gave err=%v correct=%v failed=%d\n%s", name, err, rep.Correct, rep.Failed, text)
		}
	}
}

// TestUnrecordedSeedComparesRuns checks the held-out-seed mode: the first
// run of a seed without recorded digests records them, a later run that
// disagrees fails.
func TestUnrecordedSeedComparesRuns(t *testing.T) {
	state := t.TempDir()
	seed := readLayers(t).HeldOutSeed
	b, err := openDigests(state)
	if err != nil {
		t.Fatal(err)
	}
	for label, seeds := range b.recorded {
		if _, ok := seeds[strconv.FormatUint(seed, 10)]; ok {
			t.Fatalf("held-out seed %d has recorded %s digests", seed, label)
		}
	}
	if err := b.check("x", seed, "item", "aa"); err != nil {
		t.Fatal(err)
	}
	if err := b.save(); err != nil {
		t.Fatal(err)
	}
	b, err = openDigests(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check("x", seed, "item", "aa"); err != nil {
		t.Errorf("same digest in a later run: %v", err)
	}
	if err := b.check("x", seed, "item", "bb"); err == nil {
		t.Error("a differing digest in a later run was accepted")
	}
}

// TestTailLevel checks the tail rule: the highest percentile with at least
// ten samples beyond it.
func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
	}{{50, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, l := tail(xs); l != tc.level {
			t.Errorf("n=%d: level %v, want %v", tc.n, l, tc.level)
		}
	}
}
