package paths

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topology"
)

// indexCase is one collection the link-index oracle tests run on.
type indexCase struct {
	name string
	c    *Collection
}

// randomWalks returns n random walks of 1..maxLen links on g. Walks may
// revisit nodes and links, so a path can use one link more than once.
func randomWalks(g *graph.Graph, n, maxLen int, src *rng.Source) []graph.Path {
	ps := make([]graph.Path, n)
	for i := range ps {
		u := src.Intn(g.NumNodes())
		p := graph.Path{u}
		for k := 1 + src.Intn(maxLen); k > 0; k-- {
			out := g.Out(u)
			u = g.Link(out[src.Intn(len(out))]).To
			p = append(p, u)
		}
		ps[i] = p
	}
	return ps
}

// indexCases returns random collections plus the edge cases: duplicate
// paths, a single path, link-disjoint paths, an empty collection, and
// leveled and non-leveled structures.
func indexCases(t *testing.T) []indexCase {
	t.Helper()
	src := rng.New(42)
	var cases []indexCase
	add := func(name string, g *graph.Graph, ps []graph.Path) {
		cases = append(cases, indexCase{name, MustCollection(g, ps)})
	}
	for k, side := range []int{3, 4, 6} {
		tor := topology.NewTorus(2, side)
		g := tor.Graph()
		add("walks", g, randomWalks(g, 10+20*k, 3+2*k, src))
		c, err := Build(g, RandomFunction(g.NumNodes(), src), DimOrderTorus(tor))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, indexCase{"torus-dimorder", c})
	}
	mesh := topology.NewMesh(2, 5)
	c, err := Build(mesh.Graph(), RandomPermutation(mesh.Graph().NumNodes(), src), DimOrderMesh(mesh))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, indexCase{"mesh-dimorder", c})
	bf := topology.NewButterfly(3)
	c, err = Build(bf.Graph(), ButterflyRandomQFunction(bf, 2, src), ButterflySelector(bf))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, indexCase{"butterfly", c})

	line := lineGraph(6)
	add("duplicates", line, []graph.Path{{0, 1, 2}, {0, 1, 2}, {3, 2, 1}, {0, 1, 2}, {3, 2, 1}})
	add("single", line, []graph.Path{{1, 2, 3, 4}})
	add("disjoint", line, []graph.Path{{0, 1}, {2, 3}, {1, 0}, {4, 5, 4}})
	add("empty", line, nil)
	add("ring-cycle", topology.NewRing(4).Graph(), []graph.Path{{0, 1, 2, 3, 0}, {2, 3}})
	add("line-backtrack", line, []graph.Path{{0, 1, 0, 1, 2}, {1, 2}})
	// Two disjoint chains 0..4 and 5..9 with rightward intervals: leveled,
	// two constraint components, each shifted to start at level 0.
	chains := graph.New(10)
	for i := 0; i < 9; i++ {
		if i != 4 {
			chains.AddEdge(i, i+1)
		}
	}
	var rightward []graph.Path
	for k := 0; k < 12; k++ {
		base := 5 * (k % 2)
		a := 1 + src.Intn(3)
		if k%2 == 1 {
			a = src.Intn(2) // some intervals touch the second chain's start
		}
		b := a + 1 + src.Intn(4-a)
		p := graph.Path{}
		for u := a; u <= b; u++ {
			p = append(p, base+u)
		}
		rightward = append(rightward, p)
	}
	add("chains-rightward", chains, rightward)
	return cases
}

// oracleLinks resolves each path to its link IDs independently of the
// collection's cache.
func oracleLinks(c *Collection) [][]graph.LinkID {
	out := make([][]graph.LinkID, c.Size())
	for i, p := range c.Paths() {
		out[i] = p.Links(c.Graph())
	}
	return out
}

// firstShared returns the first position along a at which a link of b
// appears, or -1 when the paths are link-disjoint.
func firstShared(a, b []graph.LinkID) int {
	for k, id := range a {
		if slices.Contains(b, id) {
			return k
		}
	}
	return -1
}

// TestLinkIndexMatchesPairwiseOracle compares every reader of the link
// index against a brute-force pairwise computation.
func TestLinkIndexMatchesPairwiseOracle(t *testing.T) {
	for _, tc := range indexCases(t) {
		c := tc.c
		links := oracleLinks(c)
		n := c.Size()

		// PathLinks.
		for i := range links {
			if got := c.PathLinks(i); !slices.Equal(got, links[i]) {
				t.Errorf("%s: PathLinks(%d) = %v, want %v", tc.name, i, got, links[i])
			}
		}

		// LinkUsers: one entry per incidence, ascending path index.
		users := make([][]int32, c.Graph().NumLinks())
		for i, ids := range links {
			for _, id := range ids {
				users[id] = append(users[id], int32(i))
			}
		}
		edge := 0
		for id := range users {
			if got := c.LinkUsers(id); !slices.Equal(got, users[id]) {
				t.Errorf("%s: LinkUsers(%d) = %v, want %v", tc.name, id, got, users[id])
			}
			edge = max(edge, len(users[id]))
		}
		if got := c.EdgeCongestion(); got != edge {
			t.Errorf("%s: EdgeCongestion = %d, want %d", tc.name, got, edge)
		}

		// PathCongestions and SharePairs against the pairwise relation.
		cong := make([]int, n)
		type pair struct{ i, j, pos int }
		var want []pair
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				pos := firstShared(links[i], links[j])
				if pos < 0 {
					continue
				}
				cong[i]++
				if j > i {
					want = append(want, pair{i, j, pos})
				}
			}
		}
		// Documented order: ascending i, then by the first shared link's
		// position along path i, then (users of one link) ascending j.
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].i != want[b].i {
				return want[a].i < want[b].i
			}
			if want[a].pos != want[b].pos {
				return want[a].pos < want[b].pos
			}
			return want[a].j < want[b].j
		})
		if got := c.PathCongestions(); !slices.Equal(got, cong) {
			t.Errorf("%s: PathCongestions = %v, want %v", tc.name, got, cong)
		}
		wantMax := 0
		for _, k := range cong {
			wantMax = max(wantMax, k)
		}
		if got := c.PathCongestion(); got != wantMax {
			t.Errorf("%s: PathCongestion = %d, want %d", tc.name, got, wantMax)
		}
		var got []pair
		c.SharePairs(func(i, j int) { got = append(got, pair{i, j, firstShared(links[i], links[j])}) })
		if !slices.Equal(got, want) {
			t.Errorf("%s: SharePairs = %v, want %v", tc.name, got, want)
		}

		// LevelAssignment against a union-find with offsets.
		wantLevels, wantOK := oracleLevels(c.Graph(), links)
		levels, ok := c.LevelAssignment()
		if ok != wantOK || (ok && !slices.Equal(levels, wantLevels)) {
			t.Errorf("%s: LevelAssignment = %v, %t; want %v, %t", tc.name, levels, ok, wantLevels, wantOK)
		}
	}
}

// oracleLevels decides the level constraints level(To) = level(From)+1 of
// every used link with a union-find that stores each node's offset from
// its root, then shifts every component to minimum level 0.
func oracleLevels(g *graph.Graph, links [][]graph.LinkID) ([]int, bool) {
	n := g.NumNodes()
	parent := make([]int, n)
	off := make([]int, n) // level(u) - level(parent[u])
	for u := range parent {
		parent[u] = u
	}
	var find func(u int) (root, level int)
	find = func(u int) (int, int) {
		if parent[u] == u {
			return u, 0
		}
		r, l := find(parent[u])
		parent[u], off[u] = r, off[u]+l
		return r, off[u]
	}
	used := make([]bool, n)
	for _, ids := range links {
		for _, id := range ids {
			l := g.Link(id)
			used[l.From], used[l.To] = true, true
			ru, lu := find(l.From)
			rv, lv := find(l.To)
			if ru == rv {
				if lv != lu+1 {
					return nil, false
				}
				continue
			}
			// Attach rv under ru: level(rv) = level(To) - lv = lu + 1 - lv.
			parent[rv], off[rv] = ru, lu+1-lv
		}
	}
	levels := make([]int, n)
	minOf := map[int]int{}
	for u := 0; u < n; u++ {
		if !used[u] {
			continue
		}
		r, l := find(u)
		levels[u] = l
		if m, ok := minOf[r]; !ok || l < m {
			minOf[r] = l
		}
	}
	for u := 0; u < n; u++ {
		if used[u] {
			r, _ := find(u)
			levels[u] -= minOf[r]
		}
	}
	return levels, true
}

// TestPathCongestionsParallelMatchesSerial runs PathCongestions on a
// collection large enough for the parallel split, on several worker
// counts, and checks each result against the serial count.
func TestPathCongestionsParallelMatchesSerial(t *testing.T) {
	tor := topology.NewTorus(2, 32)
	c, err := Build(tor.Graph(), RandomFunction(tor.Graph().NumNodes(), rng.New(3)), DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	c.usersOnce.Do(c.buildUsers)
	if len(c.links) < serialIncidences || c.Size() < 2*congestionBlock {
		t.Fatalf("collection too small for the parallel split: %d incidences, %d paths", len(c.links), c.Size())
	}
	want := make([]int, c.Size())
	c.countCongestions(want, 0, c.Size(), make([]int32, c.Size()))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := c.PathCongestions(); !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: PathCongestions differs from the serial count", procs)
		}
	}
}

// TestPathCongestionConcurrentCallers shares one cold collection between
// goroutines that all ask for C-tilde and the link index at once, as the
// parallel trial workers do; every caller must see the same values.
func TestPathCongestionConcurrentCallers(t *testing.T) {
	tor := topology.NewTorus(2, 32)
	g := tor.Graph()
	prs := RandomFunction(g.NumNodes(), rng.New(5))
	ref, err := Build(g, prs, DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	wantCong, wantEdge := ref.PathCongestion(), ref.EdgeCongestion()
	c, err := Build(g, prs, DimOrderTorus(tor))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				if got := len(c.LinkUsers(c.PathLinks(w)[0])); got == 0 {
					t.Errorf("worker %d: path %d's first link has no users", w, w)
				}
			}
			if got := c.PathCongestion(); got != wantCong {
				t.Errorf("worker %d: PathCongestion = %d, want %d", w, got, wantCong)
			}
			if got := c.EdgeCongestion(); got != wantEdge {
				t.Errorf("worker %d: EdgeCongestion = %d, want %d", w, got, wantEdge)
			}
		}(w)
	}
	wg.Wait()
}
