package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// tablesConfig sizes the tables workload.
type tablesConfig struct {
	label  string   // digest label; differs per size
	ids    []string // experiments to run, in order
	quick  bool     // experiments.Options.Quick of the timed passes
	named  []string // experiments reported by name; the rest are summed
	setups int      // quick-size warm-up passes per run; setup_s is their median
}

// validateIn and congestionIn name the experiments whose own CPU shares
// of the validator and of path congestion a traced run prints.
const (
	validateIn   = "E2"
	congestionIn = "E8"
)

// fullTables is every registered experiment at full size with the
// cmd/experiments defaults: one shard and no live telemetry. The named
// experiments take most of the time; per-trial fresh engines, the input
// validator and path-congestion recomputation dominate them.
func fullTables() tablesConfig {
	return tablesConfig{
		label:  "tables",
		ids:    experiments.IDs(),
		named:  []string{"E2", "E8", "E5", "E15", "E4"},
		setups: 7,
	}
}

// tablesPassBudget is the time budget per untraced pass: a full pass
// takes 13 to 15 seconds on a 2-CPU host.
const tablesPassBudget = 15 * time.Second

// runTables runs the experiment tables. Untraced, it first makes the
// configured number of quick-size passes over every experiment (as
// cmd/experiments -all -quick does) and reports their median as setup_s:
// the warm-up before the timed passes, which pays every first-use cost
// of the experiments' code. It then makes one full pass per
// tablesPassBudget of the time budget, at least one, and reports the
// median pass as latency_s.
// Traced, it makes one untraced and one traced pass; the traced pass
// times each experiment and profiles CPU with each sample labelled by
// experiment.
func runTables(o options, cfg tablesConfig, r *report) error {
	book, err := openDigests(o.state)
	if err != nil {
		return err
	}
	if !o.trace {
		var setups []float64
		for i := 0; i < cfg.setups; i++ {
			setups = append(setups, tablesPass(o, cfg.label+"-quick", cfg.ids, true, book, r, nil).Seconds())
		}
		// A fixed pass count per budget keeps every run's memory history,
		// and so its peak RSS, alike.
		n := int(o.seconds / tablesPassBudget.Seconds())
		if n < 1 {
			n = 1
		}
		var passes []float64
		for i := 0; i < n; i++ {
			passes = append(passes, tablesPass(o, cfg.label, cfg.ids, cfg.quick, book, r, nil).Seconds())
		}
		r.set("setup_s", median(setups), "s")
		r.set("latency_s", median(passes), "s")
		return book.save()
	}

	untraced := tablesPass(o, cfg.label, cfg.ids, cfg.quick, book, r, nil)
	before := readRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	spans := map[string]time.Duration{}
	traced := tablesPass(o, cfg.label, cfg.ids, cfg.quick, book, r, func(id string, run func()) {
		t0 := time.Now()
		withLabel("exp", id, run)
		spans[id] = time.Since(t0)
	})
	p, err := prof.stop()
	if err != nil {
		return err
	}
	setRuntimeMetrics(r, before, readRuntime())
	setProfileMetrics(r, p)
	r.set("trace_overhead", traced.Seconds()/untraced.Seconds(), "ratio")

	var rest time.Duration
	for id, d := range spans {
		rest += d
		for _, n := range cfg.named {
			if n == id {
				rest -= d
				r.show("experiments."+id+"_s", d.Seconds(), "s")
			}
		}
	}
	r.show("experiments.rest_s", rest.Seconds(), "s")
	r.show("sim.validate."+validateIn+".cpu_share", p.share("exp", validateIn, validateFuncs...), "fraction")
	r.show("paths.congestion."+congestionIn+".cpu_share", p.share("exp", congestionIn, congestionFuncs...), "fraction")
	return book.save()
}

// tablesPass runs the experiments once, checks each table's digest under
// label and returns the pass's wall time. wrap, when set, runs each
// experiment (for spans and labels).
func tablesPass(o options, label string, ids []string, quick bool, book *digestBook, r *report, wrap func(id string, run func())) time.Duration {
	settle()
	start := time.Now()
	for _, id := range ids {
		var tbl *experiments.Table
		var err error
		run := func() { tbl, err = experiments.Run(id, experiments.Options{Seed: o.seed, Quick: quick}) }
		if wrap != nil {
			wrap(id, run)
		} else {
			run()
		}
		if err == nil {
			err = checkTable(o, label, book, id, tbl)
		}
		r.op(err)
	}
	return time.Since(start)
}

// checkTable compares the SHA-256 of the table's JSON with its reference.
func checkTable(o options, label string, book *digestBook, id string, tbl *experiments.Table) error {
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return book.check(label, o.seed, id, hex.EncodeToString(sum[:]))
}
