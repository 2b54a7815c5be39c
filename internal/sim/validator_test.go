package sim

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestValidatorDuplicateIDsAcrossGrowth marks ascending IDs on a fresh
// validator and, after every growth of the stamp array, checks that every
// ID marked so far still reads as a duplicate and the next one does not:
// a growth that lost or invented a stamp would show at its boundary.
func TestValidatorDuplicateIDsAcrossGrowth(t *testing.T) {
	v := validator{idGen: 1}
	const n = 5000
	growths := 0
	for id := 0; id < n; id++ {
		before := len(v.ids)
		if v.markID(id) {
			t.Fatalf("fresh ID %d reported as a duplicate", id)
		}
		if len(v.ids) == before {
			continue
		}
		growths++
		for old := 0; old <= id; old++ {
			if !v.markID(old) {
				t.Fatalf("after growth to %d: ID %d no longer a duplicate", len(v.ids), old)
			}
		}
		if next := id + 1; next < len(v.ids) && v.ids[next] == v.idGen {
			t.Fatalf("after growth to %d: unmarked ID %d carries a stamp", len(v.ids), next)
		}
	}
	if limit := bits.Len(n) + 1; growths > limit {
		t.Errorf("%d ascending IDs grew the stamp array %d times, want <= %d", n, growths, limit)
	}
}

// TestValidatorDuplicateIDsAroundStampCap checks duplicate detection on
// both sides of idStampCap, where IDs move from the dense stamp array to
// the overflow map, and that a reused validator forgets the IDs of its
// previous check.
func TestValidatorDuplicateIDsAroundStampCap(t *testing.T) {
	g := chain(3)
	worm := func(id int) Worm {
		return Worm{ID: id, Path: graph.Path{0, 1, 2}, Length: 1}
	}
	c := Config{Bandwidth: 1}
	var v validator
	for _, tc := range []struct {
		ids []int
		dup int // duplicate ID the check must report; -1 for none
	}{
		{[]int{idStampCap - 1, idStampCap, idStampCap + 1}, -1},
		{[]int{idStampCap - 1, idStampCap, idStampCap - 1}, idStampCap - 1},
		{[]int{idStampCap, idStampCap - 1, idStampCap}, idStampCap},
		{[]int{idStampCap + 7, 0, idStampCap + 7}, idStampCap + 7},
		{[]int{0, idStampCap - 1, 1, 0}, 0},
		{[]int{idStampCap - 1, idStampCap}, -1}, // the previous checks' IDs are forgotten
	} {
		worms := make([]Worm, len(tc.ids))
		for i, id := range tc.ids {
			worms[i] = worm(id)
		}
		for _, val := range []*validator{&v, new(validator)} {
			err := val.check(g, worms, c)
			switch {
			case tc.dup < 0 && err != nil:
				t.Errorf("IDs %v: unexpected error %v", tc.ids, err)
			case tc.dup >= 0 && (err == nil || !strings.Contains(err.Error(), "duplicate worm ID")):
				t.Errorf("IDs %v: error %v, want duplicate worm ID %d", tc.ids, err, tc.dup)
			}
		}
	}
}

// TestValidatorFreshAscendingIDsAllocs bounds the allocations of
// validating 10^5 worms with ascending IDs on a fresh validator: the stamp
// array may grow only O(log n) times, not once per new highest ID.
func TestValidatorFreshAscendingIDsAllocs(t *testing.T) {
	const n = 100000
	limit := float64(bits.Len(n) + 1)

	// markID alone, with no presizing: only geometric growth helps.
	allocs := testing.AllocsPerRun(2, func() {
		v := validator{idGen: 1}
		for id := 0; id < n; id++ {
			if v.markID(id) {
				t.Fatalf("fresh ID %d reported as a duplicate", id)
			}
		}
	})
	if allocs > limit {
		t.Errorf("marking %d ascending IDs: %v allocs, want <= %v", n, allocs, limit)
	}

	// The whole check of a fresh engine's first round.
	g := chain(2)
	worms := make([]Worm, n)
	for i := range worms {
		worms[i] = Worm{ID: i, Path: graph.Path{0, 1}, Length: 1}
	}
	allocs = testing.AllocsPerRun(2, func() {
		var v validator
		if err := v.check(g, worms, Config{Bandwidth: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("validating %d worms with ascending IDs: %v allocs, want <= %v", n, allocs, limit)
	}
}
