package memsim

// Admissible per-lane lower bounds: closed-form arithmetic turning the
// ISOLATED per-access probe outcomes of a combination's lanes into a
// cost vector that provably cannot exceed the exact composed replay
// outcome, on any objective. A combination whose lower bound is already
// dominated by the live Pareto front can then be discarded with zero
// probe passes — the bound-then-prune structure the exploration engine
// layers over compositional replay. The outcomes come from one isolated
// LineSim pass per (lane, L1 geometry) plus a first-touch walk per
// (lane, line size) (astream.LaneBound); the same tables price the
// unprobed suffix of a guarded composed replay.
//
// Which ingredients are sound requires care; each field of LaneBound is
// backed by one of these arguments (lanes allocate from disjoint arenas,
// so no cache line is ever shared between lanes):
//
//   - Word counts, ALU op cycles, line probes and pipelined words are
//     platform- and interleaving-invariant: the composed totals are
//     exactly the per-lane sums.
//   - L1 hits: LRU stacks satisfy stack inclusion — interleaving other
//     lanes' (disjoint) lines between two accesses of a lane to the same
//     line can only push the reused line DEEPER in its set's recency
//     stack, never shallower. A probe that misses L1 in isolation
//     therefore misses L1 in every composed interleave, so the lane's
//     isolated L1 hit count is an UPPER bound on its composed L1 hits.
//   - DRAM fills: the first composed touch of every distinct line is
//     cold at every level, whatever the interleave. A probe that is its
//     lane's first touch of a line is a DRAM fill, so the per-lane
//     distinct-line counts sum to a LOWER bound on composed DRAM fills.
//   - Footprint: while one lane's segment runs every other lane's live
//     bytes are constant, so the composed peak is at least each lane's
//     own high-water mark, and at least the summed end-of-run live.
//
// Both probe arguments hold access by access, so they also price any
// SUFFIX of a lane's accesses: a guarded astream.Replay of an
// astream.Composition bounds its unprobed remainder by charging each
// lane's isolated misses as L2 hits and its first touches as DRAM
// fills, and every other probe as an L1 hit — sound under the same
// latency order BoundEligible requires.
//
// Deliberately absent: the lanes' isolated L2 hit/miss split. The
// composed L2 reference stream is NOT the interleave of the isolated L2
// streams — a probe that hit L1 in isolation but misses L1 composed
// inserts an extra L2 reference that refreshes its line's L2 recency,
// which can convert a later isolated DRAM fill into a composed L2 hit.
// Summing isolated L2-level costs is therefore inadmissible; the bound
// instead lets every non-cold L1 miss hit L2, the cheapest sound
// outcome. The admissibility property tests in internal/explore pin the
// whole construction against exact composed replays.

// LaneBound carries the lower-bound ingredients of one lane — or, after
// Accumulate, of a whole combination — at one platform configuration.
type LaneBound struct {
	Probes    uint64 // exact line probes the lane contributes
	MaxL1Hits uint64 // upper bound on the lane's composed L1 hits
	ColdFills uint64 // lower bound on the lane's composed DRAM fills
	Pipelined uint64 // exact pipelined extra words

	ReadWords  uint64 // exact word loads
	WriteWords uint64 // exact word stores
	OpCycles   uint64 // exact ALU cycles

	Peak    uint64 // max over accumulated lanes of own-footprint high water
	EndLive uint64 // summed end-of-run live bytes
}

// Accumulate folds another lane's ingredients into b — the profile
// algebra of a combination: exact counters sum, the footprint high water
// takes the max (one lane's own peak floors the composed peak), end-live
// bytes sum (they coexist at run end).
func (b *LaneBound) Accumulate(o LaneBound) {
	b.Probes += o.Probes
	b.MaxL1Hits += o.MaxL1Hits
	b.ColdFills += o.ColdFills
	b.Pipelined += o.Pipelined
	b.ReadWords += o.ReadWords
	b.WriteWords += o.WriteWords
	b.OpCycles += o.OpCycles
	if o.Peak > b.Peak {
		b.Peak = o.Peak
	}
	b.EndLive += o.EndLive
}

// CostFloor returns the coordinatewise floor of the alternative lane
// bounds: the per-field minimum, except MaxL1Hits which takes the
// MAXIMUM. It panics on an empty slice.
//
// The floor is the partial-assignment aggregation of branch-and-bound
// search: when a role's lane is still free, any of the alternatives
// (one per DDT kind) could fill it, and the floor stands in for
// "whichever turns out cheapest". Admissibility follows from Cost (and
// any energy model monotone in the resulting Counts and cycles) being
// coordinatewise monotone in the ingredient fields — non-decreasing in
// every field, except non-increasing in MaxL1Hits, whose growth only
// ever moves probes from slower levels into L1. The floor is therefore
// <= every alternative in the "cheaper" direction on every field at
// once, and since Accumulate preserves those per-field orderings
// (sums, and max for Peak, are monotone), a combination bound built
// from assigned lanes' real ingredients plus one floor per free role
// can never exceed the bound — hence never the exact cost — of any
// completion of that prefix. TestCostFloorAdmissible pins this against
// brute-force enumeration.
func CostFloor(alts []LaneBound) LaneBound {
	if len(alts) == 0 {
		panic("memsim: CostFloor of no alternatives")
	}
	f := alts[0]
	for _, a := range alts[1:] {
		f.Probes = min(f.Probes, a.Probes)
		f.MaxL1Hits = max(f.MaxL1Hits, a.MaxL1Hits)
		f.ColdFills = min(f.ColdFills, a.ColdFills)
		f.Pipelined = min(f.Pipelined, a.Pipelined)
		f.ReadWords = min(f.ReadWords, a.ReadWords)
		f.WriteWords = min(f.WriteWords, a.WriteWords)
		f.OpCycles = min(f.OpCycles, a.OpCycles)
		f.Peak = min(f.Peak, a.Peak)
		f.EndLive = min(f.EndLive, a.EndLive)
	}
	return f
}

// BoundEligible reports whether cfg admits the lower-bound construction:
// the geometry must be profileable (GeomEligible) and the level
// latencies monotone (L1 <= L2 <= DRAM), which is what makes "maximal L1
// hits, minimal DRAM fills, the rest L2 hits" the cheapest split for
// cycles — and, with the energy model's per-event costs ordered the same
// way, for energy. Every default platform qualifies; an exotic inverted-
// latency configuration simply forgoes pruning.
func BoundEligible(cfg Config) bool {
	return GeomEligible(cfg) &&
		cfg.L1HitCycles <= cfg.L2HitCycles && cfg.L2HitCycles <= cfg.DRAMCycles
}

// Cost converts accumulated lane ingredients into the admissible lower
// bound itself: the probe split that minimizes cost subject to the sound
// constraints (L1 hits <= MaxL1Hits, DRAM fills >= ColdFills, splits sum
// to Probes), the cycle total that split implies, and the footprint
// floor. The returned Counts carry the exact invariant word/op counters,
// so energy models evaluate on them directly. Requires BoundEligible(cfg).
func (b LaneBound) Cost(cfg Config) (Counts, uint64, uint64) {
	d := b.ColdFills
	if d > b.Probes {
		d = b.Probes // defensive: a valid profile never exceeds this
	}
	h1 := b.MaxL1Hits
	if h1 > b.Probes-d {
		h1 = b.Probes - d
	}
	c := Counts{
		ReadWords:  b.ReadWords,
		WriteWords: b.WriteWords,
		OpCycles:   b.OpCycles,
		L1Hits:     h1,
		L2Hits:     b.Probes - h1 - d,
		DRAMFills:  d,
	}
	peak := b.Peak
	if b.EndLive > peak {
		peak = b.EndLive
	}
	return c, cfg.CyclesFor(c, b.Pipelined), peak
}
