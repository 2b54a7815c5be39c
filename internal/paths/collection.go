// Package paths implements path collections — the routing problems of the
// paper. A path collection P is a multiset of paths in a network; the
// Trial-and-Failure protocol routes one worm along each path of P.
//
// The package provides the paper's problem parameters (size n, dilation D,
// path congestion C-tilde), the classification predicates (leveled,
// short-cut free), the path-selection strategies used by the application
// theorems (dimension-order for meshes/tori, bit-fixing for hypercubes,
// unique butterfly paths, translation-invariant systems for node-symmetric
// networks), and the standard workload generators (permutations, random
// functions, random q-functions).
package paths

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Collection is a multiset of validated paths in one network. The lazy
// metric caches are built once behind sync.Once, so a Collection may be
// shared by concurrent readers (e.g. parallel Monte-Carlo trials).
type Collection struct {
	g     *graph.Graph
	paths []graph.Path

	// Lazy caches, each built once. The per-path links and the per-link
	// users form a pair of CSR indices: links[pathOff[i]:pathOff[i+1]]
	// are path i's link IDs in path order, users[userOff[id]:userOff[id+1]]
	// the indices of the paths using link id, ascending (a path using a
	// link twice is listed twice).
	linksOnce sync.Once
	links     []graph.LinkID
	pathOff   []int32
	usersOnce sync.Once
	users     []int32
	userOff   []int32 // length NumLinks()+1
	congOnce  sync.Once
	cong      int // C-tilde
}

// NewCollection validates every path against g and returns the collection.
// Paths of length zero (single nodes) are rejected: a worm needs at least
// one link to traverse.
func NewCollection(g *graph.Graph, ps []graph.Path) (*Collection, error) {
	for i, p := range ps {
		if err := p.Validate(g); err != nil {
			return nil, fmt.Errorf("paths: path %d invalid: %w", i, err)
		}
		if p.Len() == 0 {
			return nil, fmt.Errorf("paths: path %d has zero length", i)
		}
	}
	return &Collection{g: g, paths: ps}, nil
}

// MustCollection is NewCollection that panics on error; intended for
// generators whose output is correct by construction.
func MustCollection(g *graph.Graph, ps []graph.Path) *Collection {
	c, err := NewCollection(g, ps)
	if err != nil {
		panic(err)
	}
	return c
}

// Graph returns the underlying network.
func (c *Collection) Graph() *graph.Graph { return c.g }

// Size returns n, the number of paths (and of worms to route).
func (c *Collection) Size() int { return len(c.paths) }

// Path returns the i-th path. The caller must not modify it.
func (c *Collection) Path(i int) graph.Path { return c.paths[i] }

// Paths returns the backing slice. The caller must not modify it.
func (c *Collection) Paths() []graph.Path { return c.paths }

// PathLinks returns the directed link IDs of path i (cached). The caller
// must not modify the result.
func (c *Collection) PathLinks(i int) []graph.LinkID {
	c.linksOnce.Do(c.buildLinks)
	lo, hi := c.pathOff[i], c.pathOff[i+1]
	return c.links[lo:hi:hi]
}

// LinkUsers returns the indices of paths using the given directed link,
// ascending. The caller must not modify the result.
func (c *Collection) LinkUsers(id graph.LinkID) []int32 {
	c.usersOnce.Do(c.buildUsers)
	lo, hi := c.userOff[id], c.userOff[id+1]
	return c.users[lo:hi:hi]
}

// buildLinks resolves every path to its link IDs, concatenated. The
// offsets are int32, so it panics on a collection with over 2^31 link
// traversals (tens of gigabytes of paths).
func (c *Collection) buildLinks() {
	total := 0
	for _, p := range c.paths {
		total += p.Len()
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("paths: %d link incidences overflow the int32 index", total))
	}
	links := make([]graph.LinkID, 0, total)
	off := make([]int32, len(c.paths)+1)
	for i, p := range c.paths {
		for j := 0; j+1 < len(p); j++ {
			id, ok := c.g.LinkBetween(p[j], p[j+1])
			if !ok {
				panic(fmt.Sprintf("paths: path %d uses missing link %d->%d", i, p[j], p[j+1]))
			}
			links = append(links, id)
		}
		off[i+1] = int32(len(links))
	}
	c.links, c.pathOff = links, off
}

// buildUsers builds the per-link user index by a counting sort of the
// per-path links: count each link's users, prefix-sum the counts into
// start offsets, then place the paths in ascending order.
func (c *Collection) buildUsers() {
	c.linksOnce.Do(c.buildLinks)
	nl := c.g.NumLinks()
	off := make([]int32, nl+1)
	for _, id := range c.links {
		off[id+1]++
	}
	for id := 1; id <= nl; id++ {
		off[id] += off[id-1]
	}
	// Placing advances off[id] from link id's start to its end, which is
	// link id+1's start; shifting by one restores the start offsets.
	users := make([]int32, len(c.links))
	for i := range c.paths {
		for _, id := range c.links[c.pathOff[i]:c.pathOff[i+1]] {
			users[off[id]] = int32(i)
			off[id]++
		}
	}
	copy(off[1:], off[:nl])
	off[0] = 0
	c.users, c.userOff = users, off
}

// Dilation returns D, the number of links of the longest path (0 for an
// empty collection).
func (c *Collection) Dilation() int {
	d := 0
	for _, p := range c.paths {
		if l := p.Len(); l > d {
			d = l
		}
	}
	return d
}

// EdgeCongestion returns the commonly used congestion: the maximum, over
// all directed links, of the number of paths using that link. (The paper
// points out this is *not* its C-tilde; see PathCongestion.)
func (c *Collection) EdgeCongestion() int {
	c.usersOnce.Do(c.buildUsers)
	max := 0
	for id := 0; id+1 < len(c.userOff); id++ {
		if k := int(c.userOff[id+1] - c.userOff[id]); k > max {
			max = k
		}
	}
	return max
}

// PathCongestion returns C-tilde, the paper's path congestion: the maximum
// over all paths p of the number of paths that share a directed link with
// p, counting p itself. (Counting p itself makes a structure of k
// identical paths have path congestion exactly k, matching the paper's
// type-2 lower-bound structures.) A collection of pairwise link-disjoint
// paths has path congestion 1. It is computed once per collection; later
// and concurrent calls share the result.
func (c *Collection) PathCongestion() int {
	c.congOnce.Do(func() {
		for _, k := range c.PathCongestions() {
			c.cong = max(c.cong, k)
		}
	})
	return c.cong
}

// congestionBlock is the number of paths a PathCongestions worker claims
// at a time, and serialIncidences the number of link incidences below
// which the whole count runs on the calling goroutine.
const (
	congestionBlock  = 256
	serialIncidences = 4096
)

// PathCongestions returns, for every path p, the number of paths sharing a
// directed link with p (including p itself). Large collections are
// counted in blocks of paths on up to GOMAXPROCS goroutines; every count
// is independent of the others, so the result does not depend on the
// split.
func (c *Collection) PathCongestions() []int {
	c.usersOnce.Do(c.buildUsers)
	n := len(c.paths)
	out := make([]int, n)
	workers := min(runtime.GOMAXPROCS(0), (n+congestionBlock-1)/congestionBlock)
	if len(c.links) < serialIncidences || workers < 2 {
		c.countCongestions(out, 0, n, make([]int32, n))
		return out
	}
	var next atomic.Int64
	claim := func(mark []int32) {
		for {
			lo := int(next.Add(congestionBlock)) - congestionBlock
			if lo >= n {
				return
			}
			c.countCongestions(out, lo, min(lo+congestionBlock, n), mark)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim(make([]int32, n))
		}()
	}
	claim(make([]int32, n))
	wg.Wait()
	return out
}

// countCongestions fills out[lo:hi] with the path congestions of paths
// lo..hi-1. mark is the caller's zeroed or previously used stamp array:
// mark[j] == i+1 once path j is counted for path i.
func (c *Collection) countCongestions(out []int, lo, hi int, mark []int32) {
	for i := lo; i < hi; i++ {
		stamp := int32(i + 1)
		count := 0
		for _, id := range c.links[c.pathOff[i]:c.pathOff[i+1]] {
			for _, j := range c.users[c.userOff[id]:c.userOff[id+1]] {
				if mark[j] != stamp {
					mark[j] = stamp
					count++
				}
			}
		}
		out[i] = count
	}
}

// SharePairs calls fn for every unordered pair (i, j), i < j, of distinct
// paths that share at least one directed link. Each pair is reported once,
// in a deterministic order: ascending i, then the order in which j's
// shared links appear along path i.
func (c *Collection) SharePairs(fn func(i, j int)) {
	c.usersOnce.Do(c.buildUsers)
	mark := make([]int32, len(c.paths)) // mark[j] == i+1 once (i, j) is reported
	for i := range c.paths {
		stamp := int32(i + 1)
		for _, id := range c.links[c.pathOff[i]:c.pathOff[i+1]] {
			for _, j := range c.users[c.userOff[id]:c.userOff[id+1]] {
				if int(j) > i && mark[j] != stamp {
					mark[j] = stamp
					fn(i, int(j))
				}
			}
		}
	}
}

// Stats summarizes the paper's problem parameters for a collection.
type Stats struct {
	N              int // number of paths
	Dilation       int // D
	EdgeCongestion int // max paths per directed link
	PathCongestion int // C-tilde
	Leveled        bool
	ShortCutFree   bool
}

// ComputeStats evaluates all parameters. The short-cut free check is
// quadratic in the number of interacting path pairs; for very large
// collections prefer calling the individual accessors.
func (c *Collection) ComputeStats() Stats {
	return Stats{
		N:              c.Size(),
		Dilation:       c.Dilation(),
		EdgeCongestion: c.EdgeCongestion(),
		PathCongestion: c.PathCongestion(),
		Leveled:        c.IsLeveled(),
		ShortCutFree:   c.IsShortCutFree(),
	}
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d D=%d C=%d C~=%d leveled=%t shortcutfree=%t",
		s.N, s.Dilation, s.EdgeCongestion, s.PathCongestion, s.Leveled, s.ShortCutFree)
}

// Subset returns a new collection containing the paths at the given
// indices (in the given order, duplicates allowed). It shares the path
// slices with the parent but computes its own metrics.
func (c *Collection) Subset(indices []int) *Collection {
	ps := make([]graph.Path, len(indices))
	for i, idx := range indices {
		ps[i] = c.paths[idx]
	}
	return &Collection{g: c.g, paths: ps}
}
