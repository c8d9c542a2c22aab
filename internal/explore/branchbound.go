package explore

import (
	"cmp"
	"container/heap"
	"context"
	"iter"
	"maps"
	"math"
	"slices"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/metrics"
)

// Best-first branch-and-bound over lane prefixes: the step-1 combination
// space, viewed as a 10-ary tree with one level per dominant role, is
// searched lowest-bound-first instead of enumerated. A tree node is a
// lane PREFIX — roles 0..d-1 assigned a concrete DDT kind, the rest
// free — and its admissible bound is the accumulated ingredients of the
// ambient lane, the non-dominant roles' fixed lanes and the assigned
// roles' real lanes, plus one memsim.CostFloor per free role (the
// coordinatewise cheapest of the role's ten alternatives). The floor
// never exceeds any completion's ingredients in the cost-increasing
// direction, so a node's bound lower-bounds every leaf below it — and a
// front member strictly dominating the bound therefore dominates every
// one of those 10^(K-d) exact outcomes, which dominance transitivity
// preserves to the final front. Such a subtree is cut as one bulk
// tombstone: its width is counted (stats, Progress), no per-combination
// Result is allocated, so discarded regions cost O(cuts) not O(space).
//
// The heap pops the prefix whose bound has the lowest energy + time +
// accesses, each normalized by the root bound. The order decides how
// much the search replays, never what it returns: every cut and prune
// tests the full four-axis bound against the front. A leaf popped
// before the front members that dominate it have landed is replayed,
// to be cut mid-walk, where a later pop would have pruned it with zero
// probes. So the order should land front members first. Footprint is
// left out of it because front members are large: on FlowMon K=5
// (1000 packets) their footprints have a median of 1.61x the root
// bound, against 1.39x for a random leaf's floor, and rewarding a
// small footprint popped them late — 12 of the 36 survivors landed in
// the last tenth of the step's landings. Ordering on the other three
// axes, Step 1 there composes 35 leaves and cuts 748 replays mid-walk,
// walking 10.6M replayed accesses, where the four-axis order composed
// 102, cut 2594 and walked 63.8M; the 36 survivors are the same. A
// child's bound is >= its parent's on every objective (it swaps a
// floor for a real lane), so the pop sequence is monotone
// non-decreasing in the priority — the best-first invariant
// TestBranchBoundMonotoneExpansion pins.

// bbNode is one lane-prefix node: roles 0..depth-1 of the dominant slate
// carry the base-10 digits of base (most significant first, matching
// CombinationSeq order), roles depth..K-1 are free. acc accumulates the
// CONCRETE lanes only — ambient, fixed non-dominant roles, assigned
// prefix — so child expansion is one Accumulate, not a re-sum.
type bbNode struct {
	depth int
	base  int
	acc   memsim.LaneBound
	vec   metrics.Vector // bound vector: acc + suffix floors, evaluated
	prio  float64
}

// bbHeap is the priority queue, lowest priority first with deterministic
// (base, depth) tie-breaks so the expansion order is reproducible.
type bbHeap []*bbNode

func (h bbHeap) Len() int { return len(h) }
func (h bbHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	if h[i].base != h[j].base {
		return h[i].base < h[j].base
	}
	return h[i].depth < h[j].depth
}
func (h bbHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *bbHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *bbHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// footCurves holds the per-token live-byte curves that tighten a
// prefix's footprint floor from the folded per-lane peak to a
// schedule-aware composed floor. The time grid is the schedule's token
// index; a lane's curve value at token i is its contribution to the
// composite high-water candidate there — the lane's running live
// total, plus the active segment's in-segment max when token i is the
// lane's own. Summing one curve per lane reproduces ComposedPeak's
// arithmetic exactly, so for a full assignment the evaluated floor IS
// the exact composed peak; a free level contributes the pointwise
// minimum over its ten kind curves, which can only undershoot every
// completion — the floor stays admissible for the whole subtree.
type footCurves struct {
	// baseSuf[d][i]: ambient + fixed non-dominant lanes + the pointwise
	// min-kind curves of all free levels >= d, pre-summed per depth.
	baseSuf [][]int64
	// level[l][k][i]: the high-water curve of level l's kind-k lane.
	level [][][]int64
	// baseMax[d][c] and levelMax[l][k][c]: the maxima of the same
	// curves over token chunk c (footChunk tokens each).
	baseMax  [][]int64
	levelMax [][][]int64
}

// footChunk is the token width of a footprint-curve chunk: the unit of
// the curves' chunk maxima, of footFloor's scan and of its polls.
const footChunk = 256

// chunkMaxima returns the maximum of each footChunk-token chunk of c.
func chunkMaxima(c []int64) []int64 {
	out := make([]int64, (len(c)+footChunk-1)/footChunk)
	for j := range out {
		chunk := c[j*footChunk : min((j+1)*footChunk, len(c))]
		out[j] = slices.Max(chunk)
	}
	return out
}

// bbSearcher holds the per-reference-configuration bound tables of one
// branch-and-bound search.
type bbSearcher struct {
	engine  *Engine
	roles   []string             // the dominant slate, tree level order
	bounds  [][]memsim.LaneBound // [level][kind]: real lane ingredients
	suffix  []memsim.LaneBound   // suffix[d]: accumulated floors of levels d..K-1
	widths  []int                // widths[d] = 10^(K-d), the subtree leaf count
	baseAcc memsim.LaneBound     // ambient + fixed non-dominant lanes
	root    metrics.Vector       // the root bound, the priority normalizer
	curves  *footCurves          // footprint tightening; nil degrades gracefully
	guard   *frontGuard
	// onPop, when set, observes every heap pop before it is acted on —
	// the hook the expansion-order and footprint-floor tests record
	// through.
	onPop func(n *bbNode)
}

// boundVec evaluates accumulated ingredients to the bound cost vector,
// exactly as pruneJob does for full assignments.
func (e *Engine) boundVec(total memsim.LaneBound) metrics.Vector {
	cfg := e.opts.platformConfig()
	counts, cycles, peak := total.Cost(cfg)
	seconds := float64(cycles) / cfg.ClockHz
	return metrics.Vector{
		Energy:    e.model.Energy(counts, seconds),
		Time:      seconds,
		Accesses:  float64(counts.Accesses()),
		Footprint: float64(peak),
	}
}

// newBBSearcher assembles the bound tables for one reference
// configuration: the ambient lane, every non-dominant role's fixed lane,
// and all 10 alternatives of each dominant role, each memoized through
// laneBoundFor. It reports false when any lane is not held (the caller
// falls back to the flat scan) — after the capture phase every lane is
// held unless the cache's budget could not keep them, so this is an
// edge, not a steady state.
func (e *Engine) newBBSearcher(ref Config, dominant []string, guard *frontGuard) (*bbSearcher, bool) {
	c, ck := e.cache, e.keysFor(ref)
	se, ok := c.scheds.get(c, ck.sched)
	if !ok {
		return nil, false
	}
	sched := se.Sched
	baseAcc, ok := e.laneBoundFor(ck.sched, func() (*astream.UnpackedLane, bool) {
		return e.decodedLane(ck.sched, true)
	})
	if !ok {
		return nil, false
	}
	laneFor := func(role string, kind ddt.Kind) (memsim.LaneBound, bool) {
		lk := ck.lane(role, kind)
		return e.laneBoundFor(lk, func() (*astream.UnpackedLane, bool) {
			return e.decodedLane(lk, false)
		})
	}
	level := make(map[string]int, len(dominant))
	for i, role := range dominant {
		level[role] = i
	}
	bounds := make([][]memsim.LaneBound, len(dominant))
	for i := range bounds {
		bounds[i] = make([]memsim.LaneBound, ddt.NumKinds)
	}
	for _, role := range sched.Roles {
		li, isDominant := level[role]
		if !isDominant {
			// Non-dominant roles keep their original kind in every step-1
			// job; their lane is part of every node's concrete base.
			b, ok := laneFor(role, apps.KindFor(nil, role))
			if !ok {
				return nil, false
			}
			baseAcc.Accumulate(b)
			continue
		}
		for k := 0; k < ddt.NumKinds; k++ {
			b, ok := laneFor(role, ddt.Kind(k))
			if !ok {
				return nil, false
			}
			bounds[li][k] = b
		}
	}

	k := len(dominant)
	suffix := make([]memsim.LaneBound, k+1)
	widths := make([]int, k+1)
	widths[k] = 1
	for d := k - 1; d >= 0; d-- {
		suffix[d] = memsim.CostFloor(bounds[d])
		suffix[d].Accumulate(suffix[d+1])
		widths[d] = widths[d+1] * ddt.NumKinds
	}
	rootAcc := baseAcc
	rootAcc.Accumulate(suffix[0])
	return &bbSearcher{
		engine:  e,
		roles:   dominant,
		bounds:  bounds,
		suffix:  suffix,
		widths:  widths,
		baseAcc: baseAcc,
		root:    e.boundVec(rootAcc),
		curves:  e.footprintCurves(sched, ref, dominant),
		guard:   guard,
	}, true
}

// footprintCurves assembles the footprint-floor curves for one search.
// It returns nil when any decoded lane is unavailable or misaligned
// with the schedule — the searcher then falls back to the folded
// per-lane peak, losing tightness but never soundness.
func (e *Engine) footprintCurves(sched *astream.Schedule, ref Config, dominant []string) *footCurves {
	cache, ck := e.cache, e.keysFor(ref)
	sk := ck.sched
	if _, ok := cache.scheds.get(cache, sk); !ok {
		return nil
	}
	tokens := sched.Tokens
	// curveFor walks the common token grid once for one lane: its own
	// tokens contribute running-live + in-segment max, every other
	// token holds the running live flat.
	curveFor := func(li int, u *astream.UnpackedLane) []int64 {
		c := make([]int64, len(tokens))
		var cum int64
		s := 0
		for i, tok := range tokens {
			if int(tok) != li {
				c[i] = cum
				continue
			}
			if s >= len(u.SegOps) {
				return nil
			}
			c[i] = cum + int64(u.SegMax[s])
			cum += u.SegEnd[s]
			s++
		}
		return c
	}
	amb, ok := e.decodedLane(sk, true)
	if !ok {
		return nil
	}
	base := curveFor(0, amb)
	if base == nil {
		return nil
	}
	levelOf := make(map[string]int, len(dominant))
	for i, role := range dominant {
		levelOf[role] = i
	}
	level := make([][][]int64, len(dominant))
	for i := range level {
		level[i] = make([][]int64, ddt.NumKinds)
	}
	laneCurve := func(li int, role string, kind ddt.Kind) []int64 {
		u, ok := e.decodedLane(ck.lane(role, kind), false)
		if !ok {
			return nil
		}
		return curveFor(li, u)
	}
	for pi, role := range sched.Roles {
		li, isDominant := levelOf[role]
		if !isDominant {
			c := laneCurve(pi+1, role, apps.KindFor(nil, role))
			if c == nil {
				return nil
			}
			for i := range base {
				base[i] += c[i]
			}
			continue
		}
		for k := 0; k < ddt.NumKinds; k++ {
			c := laneCurve(pi+1, role, ddt.Kind(k))
			if c == nil {
				return nil
			}
			level[li][k] = c
		}
	}
	k := len(dominant)
	baseSuf := make([][]int64, k+1)
	baseSuf[k] = base
	for d := k - 1; d >= 0; d-- {
		cur := make([]int64, len(tokens))
		next := baseSuf[d+1]
		for i := range cur {
			m := level[d][0][i]
			for kk := 1; kk < ddt.NumKinds; kk++ {
				if v := level[d][kk][i]; v < m {
					m = v
				}
			}
			cur[i] = next[i] + m
		}
		baseSuf[d] = cur
	}
	fc := &footCurves{
		baseSuf:  baseSuf,
		level:    level,
		baseMax:  make([][]int64, len(baseSuf)),
		levelMax: make([][][]int64, len(level)),
	}
	for d, c := range baseSuf {
		fc.baseMax[d] = chunkMaxima(c)
	}
	for l, kinds := range level {
		fc.levelMax[l] = make([][]int64, len(kinds))
		for kk, c := range kinds {
			fc.levelMax[l][kk] = chunkMaxima(c)
		}
	}
	return fc
}

// footFloor evaluates the schedule-aware footprint floor of a prefix:
// the peak over the token grid of the node's assigned-lane curves summed
// on top of the pre-summed base-plus-min-suffix curve of its depth. For
// a leaf the sum covers every lane exactly, so the result IS the exact
// composed peak pruneJob would compute.
//
// The scan is itself a small branch-and-bound. The sum of the curves'
// chunk maxima caps each chunk's peak, so chunks are scanned in
// descending order of that cap, and the scan ends once the next cap is
// no higher than the running peak: no chunk left can raise it, and the
// result is exact. When stop is non-nil it is polled with the running
// peak after every chunk, and the scan returns that running peak as
// soon as stop answers true: the peak only grows along the scan, so
// any test monotone in footprint that holds at a partial peak holds at
// the full floor too.
func (s *bbSearcher) footFloor(n *bbNode, stop func(float64) bool) float64 {
	fc := s.curves
	rows := make([][]int64, n.depth)
	caps := slices.Clone(fc.baseMax[n.depth])
	for l := range rows {
		kind := (n.base / s.widths[l+1]) % ddt.NumKinds
		rows[l] = fc.level[l][kind]
		for c, m := range fc.levelMax[l][kind] {
			caps[c] += m
		}
	}
	order := make([]int, len(caps))
	for c := range order {
		order[c] = c
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(caps[b], caps[a]) })
	base := fc.baseSuf[n.depth]
	var peak int64
	for _, c := range order {
		if caps[c] <= peak {
			break
		}
		lo := c * footChunk
		for i, v := range base[lo:min(lo+footChunk, len(base))] {
			for _, r := range rows {
				v += r[lo+i]
			}
			if v > peak {
				peak = v
			}
		}
		if stop != nil && stop(float64(peak)) {
			break
		}
	}
	return float64(peak)
}

// cuts reports whether the live front already dominates every leaf of
// the prefix's subtree. The staged test mirrors pruneJob: the cheap
// folded-peak bound first; then, only when footprint is the single
// blocking axis, the schedule-aware floor, whose scan stops as soon as
// its running peak is dominated.
func (s *bbSearcher) cuts(n *bbNode) bool {
	if s.guard.dominates(n.vec) {
		return true
	}
	if s.curves == nil {
		return false
	}
	relaxed := n.vec
	relaxed.Footprint = math.Inf(1)
	if !s.guard.dominates(relaxed) {
		return false
	}
	dominatedAt := func(foot float64) bool {
		tight := n.vec
		tight.Footprint = max(tight.Footprint, foot)
		return s.guard.dominates(tight)
	}
	return dominatedAt(s.footFloor(n, dominatedAt))
}

// priority scalarizes a bound vector for heap ordering: the sum of
// energy, time and accesses, each normalized by the root bound so no
// axis's unit dwarfs the others. Footprint is left out because a
// priority that rewards a small footprint pops the large front members
// late (see the file comment for the FlowMon counts). Any weighting
// with non-negative weights keeps the pop sequence monotone, since
// child bounds are >= parent bounds on every axis; the weighting
// decides only how much the search replays, as cuts and prunes test
// all four axes (frontGuard.dominates).
func (s *bbSearcher) priority(v metrics.Vector) float64 {
	p := 0.0
	for _, m := range [...]metrics.Metric{metrics.Energy, metrics.Time, metrics.Accesses} {
		if r := s.root.Get(m); r > 0 {
			p += v.Get(m) / r
		} else {
			p += v.Get(m)
		}
	}
	return p
}

// node builds the heap node for a prefix: acc holds the concrete lanes
// (base + assigned levels), the free levels contribute their floors.
func (s *bbSearcher) node(depth, base int, acc memsim.LaneBound) *bbNode {
	total := acc
	total.Accumulate(s.suffix[depth])
	vec := s.engine.boundVec(total)
	return &bbNode{depth: depth, base: base, acc: acc, vec: vec, prio: s.priority(vec)}
}

// search is the best-first loop, an iterator over the combination
// indexes of the leaves to resolve: pop the lowest-bound prefix, cut its
// whole subtree when the front already dominates the bound (reporting
// the width of the uncounted leaves to cut), yield a surviving leaf,
// expand a surviving inner node one level. skip marks combinations
// already materialized (the capture plan): they are excluded from both
// leaf emission and cut widths, so every combination is accounted
// exactly once. The search runs on its consumer's goroutine, so each
// pop reads the front as the consumer last left it; it stops when ctx
// is cancelled or the consumer stops.
func (s *bbSearcher) search(ctx context.Context, skip map[int]bool, cut func(width int)) iter.Seq[int] {
	return func(yield func(int) bool) {
		h := bbHeap{s.node(0, 0, s.baseAcc)}
		k := len(s.roles)
		for len(h) > 0 {
			if ctx.Err() != nil {
				return
			}
			n := heap.Pop(&h).(*bbNode)
			s.engine.bbExpanded.Add(1)
			if s.onPop != nil {
				s.onPop(n)
			}
			if s.cuts(n) {
				width := s.widths[n.depth]
				for p := range skip {
					if p >= n.base && p < n.base+s.widths[n.depth] {
						width--
					}
				}
				if width > 0 {
					cut(width)
				}
				continue
			}
			if n.depth == k {
				if !skip[n.base] && !yield(n.base) {
					return
				}
				continue
			}
			for kind := 0; kind < ddt.NumKinds; kind++ {
				acc := n.acc
				acc.Accumulate(s.bounds[n.depth][kind])
				heap.Push(&h, s.node(n.depth+1, n.base+kind*s.widths[n.depth+1], acc))
			}
		}
	}
}

// step1BranchBound is the bound-guided Step1 body: capture, search,
// cut.
//
// The capture phase runs the space's capture plan (spacePlan): its live
// runs capture the schedule, the ambient lane and every (role, kind)
// lane the cache lacks — on a cold cache the ddt.NumKinds uniform-kind
// combinations — while their exact results open the Pareto front. Then
// the per-role bound tables are assembled (memoized lane bounds; on a
// warm cache this costs map lookups), and the best-first search runs as
// the job iterator of the engine's driver, skipping the plan's
// combinations: every surviving leaf goes to the worker pool, every
// subtree cut settles its width on the spot, and because a guarded
// driver lands each epoch before it draws again, every pop tests its
// bound against a front that holds every result drawn before it. When
// the tables cannot be built — the cache's budget could not keep the
// plan's lanes — the rest of the space is scanned flat instead; per-leaf
// pruneJob still applies there, only subtree cutting is lost.
//
// Results holds only materialized combinations (sorted by combination
// index); cut subtrees appear solely in the Pruned width count. The
// survivor front is bit-identical to the exhaustive scan's: cuts and
// per-leaf prunes discard only combinations whose admissible lower
// bound a front member strictly dominates, and such combinations can
// never enter any later front.
func (e *Engine) step1BranchBound(ctx context.Context, reference Config, s1 *Step1Result) error {
	dominant, total := s1.DominantRoles, s1.Simulations
	guard := newFrontGuard()
	guardFor := func(Job) *frontGuard { return guard }

	mat := make(map[int]Result) // by combination index
	done := 0
	progress := func(n int) {
		done += n
		if e.opts.Progress != nil {
			e.opts.Progress(done, total)
		}
	}
	sc := ckptScope{step: 1, front: guard.points}
	land := func(o Outcome) {
		mat[o.Index] = o.Result
		if !o.Result.Aborted {
			guard.add(o.Result.Point(o.Index))
		}
		progress(1)
	}
	// A subtree cut settles its whole leaf width in one step: the
	// watermark composes with bulk tombstones by width, so materialized
	// + cut counts still sum to the space.
	cut := func(width int) {
		e.pruned.Add(int64(width))
		e.bbCuts.Add(1)
		s1.Pruned += width
		e.noteSettled(int64(width), sc)
		progress(width)
	}

	rest := func(skip map[int]bool) iter.Seq[int] {
		if searcher, ok := e.newBBSearcher(reference, dominant, guard); ok {
			return searcher.search(ctx, skip, cut)
		}
		return positions(total)(skip)
	}
	if err := e.runPlan(ctx, e.spacePlan(reference, dominant), rest, comboJob(reference, dominant), guardFor, exactMode, sc, land); err != nil {
		return err
	}

	s1.Results = make([]Result, 0, len(mat))
	for _, c := range slices.Sorted(maps.Keys(mat)) {
		s1.Results = append(s1.Results, mat[c])
	}
	front := guard.points()
	s1.Survivors = make([]Result, len(front))
	for i, p := range front {
		s1.Survivors[i] = mat[p.Tag]
	}
	pruned, aborted := discards(s1.Results)
	s1.Pruned += pruned
	s1.Aborted = aborted
	return nil
}
