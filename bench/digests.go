package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// recordedDigests holds output digests recorded from the program at a
// known-good commit: config label -> seed -> item -> SHA-256 hex. A
// workload checks each output against it when its seed has an entry.
//
// To record a seed, run the workload with an empty -state directory and
// merge the digests.json written there into this file.
//
//go:embed digests.json
var recordedDigests []byte

// digestTable is the layout of digests.json and of the state file.
type digestTable map[string]map[string]map[string]string

// digestBook checks output digests. A seed with recorded digests is
// checked against them; any other seed (the held-out seed among them) is
// checked against the first digest seen for the same item, in this run
// or in an earlier run that used the same state directory.
type digestBook struct {
	recorded digestTable
	seen     digestTable
	state    string // state directory; "" keeps digests in memory only
	dirty    bool
}

// openDigests loads the recorded digests and the state directory's.
func openDigests(state string) (*digestBook, error) {
	b := &digestBook{recorded: digestTable{}, seen: digestTable{}, state: state}
	if err := json.Unmarshal(recordedDigests, &b.recorded); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if state == "" {
		return b, nil
	}
	data, err := os.ReadFile(filepath.Join(state, "digests.json"))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(data, &b.seen); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(state, "digests.json"), err)
		}
	}
	return b, nil
}

// check compares one output digest with the reference for its item.
func (b *digestBook) check(label string, seed uint64, item, digest string) error {
	s := strconv.FormatUint(seed, 10)
	if ref, ok := b.recorded[label][s]; ok {
		want, ok := ref[item]
		if !ok {
			return fmt.Errorf("%s seed %s: no recorded digest for %s", label, s, item)
		}
		if want != digest {
			return fmt.Errorf("%s seed %s: %s digest %.12s, recorded %.12s", label, s, item, digest, want)
		}
		return nil
	}
	if b.seen[label] == nil {
		b.seen[label] = map[string]map[string]string{}
	}
	if b.seen[label][s] == nil {
		b.seen[label][s] = map[string]string{}
	}
	if want, ok := b.seen[label][s][item]; ok {
		if want != digest {
			return fmt.Errorf("%s seed %s: %s digest %.12s, earlier run %.12s", label, s, item, digest, want)
		}
		return nil
	}
	b.seen[label][s][item] = digest
	b.dirty = true
	return nil
}

// save writes newly seen digests to the state directory.
func (b *digestBook) save() error {
	if b.state == "" || !b.dirty {
		return nil
	}
	if err := os.MkdirAll(b.state, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b.seen, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.state, "digests.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
