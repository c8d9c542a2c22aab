package explore

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/ddt"
	"repro/internal/metrics"
	"repro/internal/pareto"
)

// bbFixture runs one bound-pruned Step1 on DRR's 3-role grid to populate
// the lane caches, then rebuilds a searcher over the same bound tables so
// tests can drive the best-first loop directly through the onPop hook.
func bbFixture(t *testing.T, packets int) (*Engine, *bbSearcher, *frontGuard, *Step1Result) {
	t.Helper()
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(a, Options{TracePackets: packets, DominantK: 3, BoundPrune: true})
	ref := Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	s1, err := eng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	guard := newFrontGuard()
	searcher, ok := eng.newBBSearcher(ref, s1.DominantRoles, guard)
	if !ok {
		t.Fatal("bound tables unavailable after a bound-pruned Step1")
	}
	return eng, searcher, guard, s1
}

// TestBranchBoundMonotoneExpansion pins the best-first invariant: with
// child bounds coordinatewise >= parent bounds, the heap pops prefixes in
// monotone non-decreasing priority order — first with an empty front
// (full expansion of all 1111 tree nodes), then with the real survivor
// front loaded, where cutting must preserve both the order and the exact
// width accounting.
func TestBranchBoundMonotoneExpansion(t *testing.T) {
	_, searcher, guard, s1 := bbFixture(t, 120)
	space := 1
	for range searcher.roles {
		space *= ddt.NumKinds
	}

	runSearch := func() (pops int, leaves, cuts int) {
		prev := -1.0
		rootSeen := false
		searcher.onPop = func(n *bbNode) {
			depth, vec, prio := n.depth, n.vec, n.prio
			if !rootSeen {
				if depth != 0 {
					t.Fatalf("first pop at depth %d, want the root", depth)
				}
				rootSeen = true
			}
			if prio < prev {
				t.Fatalf("pop %d: priority %v < previous %v — expansion not best-first", pops, prio, prev)
			}
			prev = prio
			pops++
			for _, m := range metrics.AllMetrics() {
				if vec.Get(m) < 0 {
					t.Fatalf("negative bound %s at depth %d", m, depth)
				}
			}
		}
		for range searcher.search(context.Background(), map[int]bool{}, func(w int) { cuts += w }) {
			leaves++
		}
		return pops, leaves, cuts
	}

	// Empty front: nothing dominates, so the search expands every node.
	pops, leaves, cuts := runSearch()
	if cuts != 0 {
		t.Fatalf("empty front cut %d combinations", cuts)
	}
	wantPops := 0
	for w := 1; w <= space; w *= ddt.NumKinds {
		wantPops += w
	}
	if pops != wantPops || leaves != space {
		t.Fatalf("empty front: %d pops and %d leaves, want %d and %d", pops, leaves, wantPops, space)
	}

	// Real front: order stays monotone and leaves + cut widths still
	// account for the whole space.
	for i, sv := range s1.Survivors {
		guard.add(sv.Point(i))
	}
	if _, leaves, cuts = runSearch(); leaves+cuts != space {
		t.Fatalf("survivor front: %d leaves + %d cut of %d combinations", leaves, cuts, space)
	}

	// Degenerate front: a zero point dominates every bound, so the root
	// itself is cut and the whole space goes in one tombstone.
	guard.add(pareto.Point{Label: "zero", Vec: metrics.Vector{}})
	pops, leaves, cuts = runSearch()
	if pops != 1 || leaves != 0 || cuts != space {
		t.Fatalf("zero front: %d pops, %d leaves, %d cut — want one root-wide tombstone", pops, leaves, cuts)
	}
}

// TestPriorityIgnoresFootprint pins the search order's objectives: two
// bound vectors that differ only in footprint get equal priority, and
// each of the three ordered axes still raises it.
func TestPriorityIgnoresFootprint(t *testing.T) {
	s := &bbSearcher{root: metrics.Vector{Energy: 2e-3, Time: 4e-4, Accesses: 5e5, Footprint: 3e4}}
	v := metrics.Vector{Energy: 3e-3, Time: 5e-4, Accesses: 6e5, Footprint: 4e4}
	big := v
	big.Footprint *= 10
	if p, q := s.priority(v), s.priority(big); p != q {
		t.Fatalf("footprint moved the priority: %v → %v", p, q)
	}
	for _, m := range []metrics.Metric{metrics.Energy, metrics.Time, metrics.Accesses} {
		if w := v.Set(m, 2*v.Get(m)); s.priority(w) <= s.priority(v) {
			t.Fatalf("doubling %s did not raise the priority", m)
		}
	}
}

// TestBranchBoundSeedsExcludedFromCuts pins the accounting rule that
// makes materialized + cut == space exact: the capture plan's
// combinations (a cold run's seeds) inside a cut subtree are subtracted
// from the tombstone width because they already carry a Result of
// their own.
func TestBranchBoundSeedsExcludedFromCuts(t *testing.T) {
	eng, searcher, guard, s1 := bbFixture(t, 120)
	space := 1
	for range searcher.roles {
		space *= ddt.NumKinds
	}
	cold := NewEngine(eng.app, eng.opts)
	skip := make(map[int]bool)
	for _, c := range cold.spacePlan(s1.Reference, s1.DominantRoles) {
		skip[c] = true
	}
	if len(skip) != ddt.NumKinds {
		t.Fatalf("cold capture plan %v, want %d combinations", skip, ddt.NumKinds)
	}
	guard.add(pareto.Point{Label: "zero", Vec: metrics.Vector{}})
	leaves, cuts := 0, 0
	for range searcher.search(context.Background(), skip, func(w int) { cuts += w }) {
		leaves++
	}
	if leaves != 0 {
		t.Fatalf("zero front emitted %d leaves", leaves)
	}
	if want := space - ddt.NumKinds; cuts != want {
		t.Fatalf("root tombstone width %d, want %d (space minus the %d seeds)", cuts, want, ddt.NumKinds)
	}
}

// TestFootFloorMatchesFullScan pins footFloor's chunked scan against a
// plain scan of every token: on every popped node the floor is exactly
// the full scan's peak, and cuts decides exactly as the staged test
// with that full-scan floor would. It runs on the real survivor front
// and on synthetic fronts that make footprint the single blocking axis
// at levels between the root's folded peak and its full floor — and on
// some nodes the early exit does stop the scan short of the floor.
func TestFootFloorMatchesFullScan(t *testing.T) {
	// 400 packets: a schedule of many footChunk-token chunks.
	_, searcher, guard, s1 := bbFixture(t, 400)
	if searcher.curves == nil {
		t.Fatal("fixture has no footprint curves")
	}
	if tokens := len(searcher.curves.baseSuf[0]); tokens <= 4*footChunk {
		t.Fatalf("fixture schedule has %d tokens; the test needs several %d-token chunks", tokens, footChunk)
	}
	fullScan := func(n *bbNode) float64 {
		var peak int64
		for i, v := range searcher.curves.baseSuf[n.depth] {
			for l := 0; l < n.depth; l++ {
				v += searcher.curves.level[l][(n.base/searcher.widths[l+1])%ddt.NumKinds][i]
			}
			peak = max(peak, v)
		}
		return float64(peak)
	}
	fullScanCuts := func(n *bbNode) bool {
		if searcher.guard.dominates(n.vec) {
			return true
		}
		relaxed := n.vec
		relaxed.Footprint = math.Inf(1)
		if !searcher.guard.dominates(relaxed) {
			return false
		}
		tight := n.vec
		tight.Footprint = max(tight.Footprint, fullScan(n))
		return searcher.guard.dominates(tight)
	}
	pops, early := 0, 0
	runSearch := func(what string) {
		searcher.onPop = func(n *bbNode) {
			pops++
			full := fullScan(n)
			if got := searcher.footFloor(n, nil); got != full {
				t.Fatalf("%s: node (depth %d, base %d): floor %v, full scan %v", what, n.depth, n.base, got, full)
			}
			if got, want := searcher.cuts(n), fullScanCuts(n); got != want {
				t.Fatalf("%s: node (depth %d, base %d): cuts %v, full scan %v", what, n.depth, n.base, got, want)
			}
			part := searcher.footFloor(n, func(foot float64) bool {
				tight := n.vec
				tight.Footprint = max(tight.Footprint, foot)
				return searcher.guard.dominates(tight)
			})
			if part > full {
				t.Fatalf("%s: partial floor %v above the full floor %v", what, part, full)
			}
			if part < full {
				early++
			}
		}
		for range searcher.search(context.Background(), map[int]bool{}, func(int) {}) {
		}
	}

	for i, sv := range s1.Survivors {
		guard.add(sv.Point(i))
	}
	runSearch("survivor front")

	root := searcher.node(0, 0, searcher.baseAcc)
	lo, hi := root.vec.Footprint, fullScan(root)
	if hi <= lo {
		t.Fatalf("root floor %v does not tighten its folded peak %v", hi, lo)
	}
	for k := 1; k < 8; k++ {
		g := newFrontGuard()
		foot := lo + (hi-lo)*float64(k)/8
		g.add(pareto.Point{Label: "footprint-blocked", Vec: metrics.Vector{Footprint: foot}})
		searcher.guard = g
		runSearch(fmt.Sprintf("footprint level %v", foot))
	}
	if early == 0 {
		t.Fatalf("no scan of %d pops stopped early", pops)
	}
	t.Logf("%d pops, %d scans stopped early", pops, early)
}
