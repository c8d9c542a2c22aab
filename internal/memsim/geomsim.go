package memsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// noLine is the skip window's empty sentinel; unreachable as a real
// line index for the line sizes (>= 2 bytes) the simulator models.
const noLine = ^uint32(0)

// GeomSim is the single-pass all-geometry probe kernel: one walk over an
// access stream produces exact hit/miss counts for an entire family of
// cache configurations sharing an L1 line size. It generalizes the
// classic Mattson stack algorithm (one LRU stack yields hit counts for
// every capacity at once) to the set-indexed case the way Hill & Smith's
// all-associativity simulation does: because an A-way LRU set always
// holds exactly the A most-recently-used lines mapping to it, a per-set
// recency stack of depth Amax simultaneously models every associativity
// A <= Amax for that set count — the depth at which a probe finds its
// line is the per-set reuse (stack) distance, and the probe hits an
// A-way cache iff that depth is < A.
//
// One recency-stack group per distinct L1 set count therefore covers
// every L1 geometry of the family. The second level is handled
// hierarchically from the same pass: the L2 reference stream of a
// configuration is exactly its L1 geometry's miss stream, so each
// distinct L1 geometry (sets, assoc) present in the family feeds, on
// its misses, one L2 recency-stack group per L2 set count the family
// couples with that geometry. The recorded depth histograms then answer
// any configuration in the covered cross product — a profiled L1
// geometry x its L2 set counts x any associativity (either level) up to
// the tracked depths — by pure arithmetic (CountsFor), bit-identical to
// a dedicated LineSim replay of that configuration (pinned by property
// tests in memsim and astream).
//
// GeomSim keeps an exactness-preserving span skip: an access entirely
// inside the most recently probed line span is a depth-0 hit in every
// group with no LRU state change, accounted by a single shared counter.
// Like LineSim it is single-goroutine state, pooled and Reset by the
// replay layer.
type GeomSim struct {
	family []Config // constructor configs, for Reset identity

	lineBytes uint32
	shift     uint32
	// minSets bounds the shared skip window: a span shorter than the
	// smallest group's set count occupies distinct sets — and is MRU —
	// in every group at once.
	minSets             uint32
	lastFirst, lastLine uint32 // the skip window, noLine when empty

	probes    uint64 // line probes walked, including window hits
	winHits   uint64 // window hits not yet folded into the hist[0]s
	pipelined uint64

	// SHARDS-style spatial sampling (NewGeomSimSampled). rateShift k
	// selects sample rate R = 2^-k: a line is probed iff
	// splitmix(line) <= threshold = 2^64/2^k - 1, so the kept subset is a
	// uniform pseudo-random R-fraction of the distinct lines, fixed for
	// the whole pass (every probe of a kept line is kept — the property
	// that preserves per-line reuse behavior). Set counts are scaled down
	// by the same factor (the "miniature cache" of SHARDS): the sampled
	// lines see sets>>k sets, so per-set occupancy — and therefore the
	// per-set stack-distance distribution — matches the full cache, while
	// bucket counts shrink by R and are re-scaled by 1<<k in CountsFor.
	// probes and pipelined stay exact (every line is still walked and
	// counted); sampledProbes counts only the kept subset, which is what
	// the histograms sum to. rateShift 0 is the exact kernel: the filter,
	// the scaling and the variance tracking all disappear and every code
	// path below is untouched.
	rateShift     uint32
	threshold     uint64
	sampledProbes uint64
	// sampleSeen assigns each distinct kept line a dense slot index in
	// first-seen order (nil when exact); curSlot is the slot of the line
	// a probeLine descent is currently charging, resolved ONCE per
	// probed line so the per-group variance counters index flat arrays
	// instead of hashing (line, depth) keys at every level.
	sampleSeen map[uint32]uint32
	curSlot    uint32

	groups []geomGroup
}

// geomGroup is the recency-stack structure for one distinct L1 set
// count: a per-set LRU stack of depth cap (the largest associativity any
// family member needs at this set count) plus the depth histogram, and
// the L1 geometries (pairs) whose miss streams feed second-level groups.
type geomGroup struct {
	sets uint32 // nominal (family) set count; the CountsFor lookup key
	cap  uint32
	mask uint32   // scaled-sets-1 under sampling, sets-1 exact
	tags []uint32 // scaledSets*cap entries, MRU first within each set
	// hist[d] counts probes that found their line at per-set depth d;
	// hist[cap] counts probes at depth >= cap (or absent) — a miss for
	// every associativity <= cap.
	hist []uint64
	// Sampled-mode variance ingredients (nil on an exact kernel): for
	// each depth bucket d, sq[d] accumulates the sum over kept lines l of
	// c_{l,d}^2, where c_{l,d} is how many of l's probes landed at depth
	// d — maintained incrementally ((c+1)^2 - c^2 = 2c+1) from the
	// per-(line,depth) counters in contrib. Under Bernoulli line
	// inclusion at rate R the estimator N_d = hist[d]/R has variance
	// (1-R)/R^2 * sum(c^2), which is what ReuseProfile.RelCI evaluates.
	sq []uint64
	// contrib[slot*(cap+1)+d] counts depth-d probes of the kept line at
	// that slot (GeomSim.sampleSeen assigns slots densely). Flat and
	// grown on demand — non-nil only on sampled kernels.
	contrib []uint32
	// pairs are the distinct L1 associativities of the family at this
	// set count, ascending; a probe at depth d feeds the L2 groups of
	// every pair with assoc <= d (exactly the configurations whose L1
	// missed).
	pairs []geomPair
}

// geomPair is one distinct L1 geometry (the group's set count plus this
// associativity) together with the L2-level recency stacks its miss
// stream drives, one per candidate L2 set count.
type geomPair struct {
	assoc uint32
	l2    []geomL2
}

// geomL2 is one second-level recency-stack: per-set LRU depth tracking
// for one L2 set count, fed by one L1 geometry's miss stream.
type geomL2 struct {
	sets uint32 // nominal set count (lookup key); mask is the scaled one
	cap  uint32
	mask uint32
	tags []uint32
	hist []uint64 // cap+1, as in geomGroup
	// Variance ingredients, as in geomGroup (nil on an exact kernel).
	sq      []uint64
	contrib []uint32
}

// effectiveGeometry normalizes a cache geometry for every simulator:
// zero set counts and associativities clamp to one.
func effectiveGeometry(g CacheGeometry) (sets, assoc uint32) {
	sets = g.Sets()
	if sets == 0 {
		sets = 1
	}
	assoc = g.Assoc
	if assoc == 0 {
		assoc = 1
	}
	return sets, assoc
}

// effectiveLine normalizes the address-mapping line size for every
// simulator: zero clamps to one byte.
func effectiveLine(cfg Config) uint32 {
	lb := cfg.L1.LineBytes
	if lb == 0 {
		lb = 1
	}
	return lb
}

// EffectiveLineBytes returns the address-mapping line size of the
// configuration (L1's line size, zero clamping to one byte) — the key
// that groups configurations into GeomSim families.
func EffectiveLineBytes(cfg Config) uint32 { return effectiveLine(cfg) }

// GeomEligible reports whether the configuration can join a GeomSim
// family: power-of-two line size, power-of-two effective set counts at
// both levels, and associativities within the profile histogram bound
// (the practical cases; anything else replays on the generic
// per-configuration LineSim path). The associativity bound is what
// guarantees every profile the kernel emits re-decodes: histograms
// never exceed maxProfileHist buckets.
func GeomEligible(cfg Config) bool {
	lb := effectiveLine(cfg)
	if lb&(lb-1) != 0 {
		return false
	}
	s1, a1 := effectiveGeometry(cfg.L1)
	s2, a2 := effectiveGeometry(cfg.L2)
	return s1&(s1-1) == 0 && s2&(s2-1) == 0 &&
		a1 <= maxProfileHist && a2 <= maxProfileHist
}

// LineFamily is one geometry family of a configuration list: the
// indexes of the configurations sharing an address-mapping (L1) line
// size — the unit a GeomSim pass collapses.
type LineFamily struct {
	LineBytes uint32
	Indexes   []int
}

// LineFamiliesOf partitions configurations into line-size families, in
// first-appearance order. Both the replay planner and the exploration
// layers group through this, so family partitioning can never desync
// between them.
func LineFamiliesOf(cfgs []Config) []LineFamily {
	var out []LineFamily
	for i, cfg := range cfgs {
		lb := effectiveLine(cfg)
		j := 0
		for j < len(out) && out[j].LineBytes != lb {
			j++
		}
		if j == len(out) {
			out = append(out, LineFamily{LineBytes: lb})
		}
		out[j].Indexes = append(out[j].Indexes, i)
	}
	return out
}

// NewGeomSim builds the all-geometry kernel for a family of
// configurations sharing an L1 line size. Every configuration must be
// GeomEligible and use the same (effective) line size.
func NewGeomSim(cfgs []Config) (*GeomSim, error) { return NewGeomSimSampled(cfgs, 0) }

// MaxSampleShift bounds the spatial sample rate: R >= 2^-16.
const MaxSampleShift = 16

// NewGeomSimSampled builds the kernel with SHARDS-style spatial
// sampling at rate R = 2^-sampleShift. Shift 0 IS the exact kernel —
// NewGeomSim delegates here — so the sampled and exact paths can never
// diverge structurally. A sampled pass keeps a hash-selected
// R-fraction of the distinct lines, runs them against set counts scaled
// down by the same factor, and records per-bucket variance ingredients;
// CountsFor then re-scales bucket sums by 1/R into unbiased estimates
// whose confidence interval ReuseProfile.RelCI reports. Line probes and
// pipelined words remain exact regardless of shift.
func NewGeomSimSampled(cfgs []Config, sampleShift uint32) (*GeomSim, error) {
	if sampleShift > MaxSampleShift {
		return nil, fmt.Errorf("memsim: sample shift %d exceeds max %d", sampleShift, MaxSampleShift)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("memsim: GeomSim needs at least one configuration")
	}
	lb := effectiveLine(cfgs[0])
	for _, cfg := range cfgs {
		if !GeomEligible(cfg) {
			return nil, fmt.Errorf("memsim: configuration %+v is not GeomSim-eligible", cfg)
		}
		if effectiveLine(cfg) != lb {
			return nil, fmt.Errorf("memsim: GeomSim family mixes line sizes %d and %d", lb, effectiveLine(cfg))
		}
	}

	// Distinct L1 set counts, each with the largest associativity the
	// family needs there; distinct (sets, assoc) pairs underneath; and
	// per pair, the L2 set counts the family actually couples with that
	// L1 geometry, tracked to the family-wide L2 depth cap. The pass
	// covers the cross product of each L1 geometry with its own L2 set
	// counts and every associativity under the cap — second-level work
	// stays proportional to the family's own L2 demand, not to a global
	// candidate product (which would multiply the miss-stream cost).
	type l1geom struct{ s1, a1 uint32 }
	l1cap := make(map[uint32]uint32)     // L1 sets -> max assoc
	l1pairs := make(map[uint32][]uint32) // L1 sets -> distinct assocs, ascending
	l2setsFor := make(map[l1geom][]uint32)
	var l2cap uint32
	for _, cfg := range cfgs {
		s1, a1 := effectiveGeometry(cfg.L1)
		if a1 > l1cap[s1] {
			l1cap[s1] = a1
		}
		l1pairs[s1] = insertSorted(l1pairs[s1], a1)
		s2, a2 := effectiveGeometry(cfg.L2)
		g := l1geom{s1, a1}
		l2setsFor[g] = insertSorted(l2setsFor[g], s2)
		if a2 > l2cap {
			l2cap = a2
		}
	}
	var s1list []uint32
	for s1 := range l1cap {
		s1list = insertSorted(s1list, s1)
	}

	s := &GeomSim{
		family:    append([]Config(nil), cfgs...),
		lineBytes: lb,
		shift:     uint32(bits.TrailingZeros32(lb)),
		minSets:   s1list[0],
		lastFirst: noLine,
		lastLine:  noLine,
		rateShift: sampleShift,
		groups:    make([]geomGroup, len(s1list)),
	}
	if sampleShift > 0 {
		s.threshold = ^uint64(0) >> sampleShift
		s.sampleSeen = make(map[uint32]uint32)
	}
	for gi, s1 := range s1list {
		cap := l1cap[s1]
		scaled := scaledSets(s1, sampleShift)
		g := geomGroup{
			sets: s1,
			cap:  cap,
			mask: scaled - 1,
			tags: newTagStore(scaled * cap),
			hist: make([]uint64, cap+1),
		}
		if sampleShift > 0 {
			g.sq = make([]uint64, cap+1)
			g.contrib = make([]uint32, 0, 1024)
		}
		for _, a1 := range l1pairs[s1] {
			cands := l2setsFor[l1geom{s1, a1}]
			p := geomPair{assoc: a1, l2: make([]geomL2, len(cands))}
			for li, s2 := range cands {
				scaled2 := scaledSets(s2, sampleShift)
				p.l2[li] = geomL2{
					sets: s2,
					cap:  l2cap,
					mask: scaled2 - 1,
					tags: newTagStore(scaled2 * l2cap),
					hist: make([]uint64, l2cap+1),
				}
				if sampleShift > 0 {
					p.l2[li].sq = make([]uint64, l2cap+1)
					p.l2[li].contrib = make([]uint32, 0, 1024)
				}
			}
			g.pairs = append(g.pairs, p)
		}
		s.groups[gi] = g
	}
	return s, nil
}

// scaledSets shrinks a set count by the sample rate, floored at one set
// — the SHARDS miniature cache. Power-of-two in, power-of-two out.
func scaledSets(sets, sampleShift uint32) uint32 {
	if s := sets >> sampleShift; s > 0 {
		return s
	}
	return 1
}

// sampleHash is the splitmix64 finalizer over the line index: the
// spatial sampling filter. A line is kept iff sampleHash(line) <=
// threshold, so membership is a fixed pseudo-random property of the
// line, identical across groups, passes, lanes and platforms — sampled
// lane profiles of the same stream remain comparable.
func sampleHash(line uint32) uint64 {
	z := uint64(line) + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SampleHash exposes the spatial sampling hash so callers can apply
// the kernel's own keep/skip filter to a line stream ahead of time
// (astream's precomputed sampled lane views). A line is kept at shift
// k iff SampleHash(line) <= SampleThreshold(k).
func SampleHash(line uint32) uint64 { return sampleHash(line) }

// SampleThreshold returns the keep threshold for sample rate
// R = 2^-sampleShift. Shift 0 keeps every line.
func SampleThreshold(sampleShift uint32) uint64 { return ^uint64(0) >> sampleShift }

// insertSorted inserts v into a small ascending slice, keeping it
// duplicate-free.
func insertSorted(s []uint32, v uint32) []uint32 {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// newTagStore returns n tag slots initialized empty.
func newTagStore(n uint32) []uint32 {
	t := make([]uint32, n)
	for i := range t {
		t[i] = invalidTag
	}
	return t
}

// Reset returns the kernel to its just-constructed state for exactly
// the family it was built with (element-wise equal configuration
// slice), reusing every tag array and histogram, and reports whether it
// could. Like LineSim.Reset it is what lets the replay layer pool
// GeomSims instead of rebuilding their stores per pass.
func (s *GeomSim) Reset(cfgs []Config) bool { return s.ResetSampled(cfgs, 0) }

// ResetSampled is Reset for a pooled sampled kernel: the identity a
// kernel can be reused for is (family, sample shift) — the tag stores
// are sized for the scaled set counts, so a different shift needs a
// rebuild. Maps are cleared in place (clear keeps their buckets), which
// is what makes a steady-state sampled probe pass allocation-free.
func (s *GeomSim) ResetSampled(cfgs []Config, sampleShift uint32) bool {
	if sampleShift != s.rateShift || len(cfgs) != len(s.family) {
		return false
	}
	for i, cfg := range cfgs {
		if cfg != s.family[i] {
			return false
		}
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		clearTags(g.tags)
		clearHist(g.hist)
		if g.contrib != nil {
			clearHist(g.sq)
			clear(g.contrib)
		}
		for pi := range g.pairs {
			for li := range g.pairs[pi].l2 {
				l2 := &g.pairs[pi].l2[li]
				clearTags(l2.tags)
				clearHist(l2.hist)
				if l2.contrib != nil {
					clearHist(l2.sq)
					clear(l2.contrib)
				}
			}
		}
	}
	if s.sampleSeen != nil {
		clear(s.sampleSeen)
	}
	s.lastFirst, s.lastLine = noLine, noLine
	s.probes, s.winHits, s.pipelined, s.sampledProbes = 0, 0, 0, 0
	return true
}

// SampleShift returns the kernel's sample-rate shift (0 = exact).
func (s *GeomSim) SampleShift() uint32 { return s.rateShift }

// LineBytes returns the family's shared address-mapping line size.
func (s *GeomSim) LineBytes() uint32 { return s.lineBytes }

func clearTags(t []uint32) {
	for i := range t {
		t[i] = invalidTag
	}
}

func clearHist(h []uint64) {
	for i := range h {
		h[i] = 0
	}
}

// ProbeAccesses walks a batch of accesses through every geometry of the
// family at once — the single-pass counterpart of running LineSim.
// ProbeAccesses once per configuration. Span, pipelined-word and
// skip-window work is paid once for the whole family; each probed line
// costs one per-set recency-stack descent per distinct L1 set count,
// plus second-level descents only for the L1 geometries that missed.
func (s *GeomSim) ProbeAccesses(addrs, sizes []uint32) {
	if len(addrs) != len(sizes) {
		panic("memsim: ProbeAccesses length mismatch")
	}
	if s.rateShift != 0 {
		s.probeAccessesSampled(addrs, sizes)
		return
	}
	var (
		shift               = s.shift
		minSets             = s.minSets
		lastFirst, lastLine = s.lastFirst, s.lastLine
		probes, winHits     uint64
		pipelined           uint64
	)
	for i, addr := range addrs {
		size := sizes[i]
		if size == 0 {
			continue
		}
		first := addr >> shift
		last := (addr + size - 1) >> shift
		if words, lines := uint64((size+3)>>2), uint64(last-first+1); words > lines {
			pipelined += words - lines
		}
		if last < first {
			continue // addr+size wraps the 32-bit space: the hierarchy probes no lines
		}
		if first >= lastFirst && last <= lastLine {
			// Inside the shared skip window: a depth-0 hit in every
			// group, folded into the hist[0]s lazily (finalize).
			n := uint64(last - first + 1)
			winHits += n
			probes += n
			continue
		}
		if last-first < minSets {
			lastFirst, lastLine = first, last
		} else {
			lastFirst, lastLine = noLine, noLine
		}
		for line := first; ; line++ {
			s.probeLine(line)
			probes++
			if line == last {
				break
			}
		}
	}
	s.lastFirst, s.lastLine = lastFirst, lastLine
	s.probes += probes
	s.winHits += winHits
	s.pipelined += pipelined
}

// probeAccessesSampled is the sampled-mode walk: the invariant counters
// (probes, pipelined) are accumulated exactly for every line, but only
// lines passing the spatial hash filter descend the recency stacks. The
// shared skip window is disabled — a lazily-folded window hit cannot be
// attributed to individual lines, and the filter needs per-line
// attribution — which costs nothing relative to the 1/R win.
func (s *GeomSim) probeAccessesSampled(addrs, sizes []uint32) {
	var (
		shift         = s.shift
		threshold     = s.threshold
		probes        uint64
		sampledProbes uint64
		pipelined     uint64
	)
	for i, addr := range addrs {
		size := sizes[i]
		if size == 0 {
			continue
		}
		first := addr >> shift
		last := (addr + size - 1) >> shift
		if words, lines := uint64((size+3)>>2), uint64(last-first+1); words > lines {
			pipelined += words - lines
		}
		if last < first {
			continue // addr+size wraps the 32-bit space: the hierarchy probes no lines
		}
		for line := first; ; line++ {
			probes++
			if sampleHash(line) <= threshold {
				sampledProbes++
				s.curSlot = s.slotFor(line)
				s.probeLine(line)
			}
			if line == last {
				break
			}
		}
	}
	s.probes += probes
	s.sampledProbes += sampledProbes
	s.pipelined += pipelined
}

// ProbeSampledLines feeds a sampled kernel a pre-filtered batch: lines
// already hash-selected (SampleHash(line) <= SampleThreshold(shift)),
// in probe order, together with the EXACT line-probe and
// pipelined-word counts of the full batch the filter was applied to.
// The outcome is bit-identical to ProbeAccesses over the unfiltered
// batch — the filter is a pure function of the line index, so hoisting
// it out of the replay costs nothing in fidelity. Callers that
// precompute the kept subsequence of a fixed access stream (astream's
// sampled lane views) pay the full walk and the hashing once, then
// replay at O(kept lines) per pass. Panics on an exact kernel: shift 0
// has no filter the caller could have applied.
func (s *GeomSim) ProbeSampledLines(lines []uint32, probes, pipelined uint64) {
	if s.rateShift == 0 {
		panic("memsim: ProbeSampledLines on an exact kernel")
	}
	for _, line := range lines {
		s.curSlot = s.slotFor(line)
		s.probeLine(line)
	}
	s.probes += probes
	s.sampledProbes += uint64(len(lines))
	s.pipelined += pipelined
}

// probeLine descends every group's recency stack for one line: find the
// line's per-set depth, move it to MRU (installing on absence), record
// the depth, and feed the miss streams of the L1 geometries it missed.
// The 2- and 4-deep descents — every practical L1 associativity — are
// written out with direct indexing; this loop is the hot path of a
// multi-platform replay, run once per probed line for the whole family.
func (s *GeomSim) probeLine(line uint32) {
	for gi := range s.groups {
		g := &s.groups[gi]
		tags := g.tags
		base := (line & g.mask) * g.cap
		if tags[base] == line {
			g.hist[0]++ // MRU: a hit for every associativity, no reorder
			if g.contrib != nil {
				addContrib(g.sq, &g.contrib, s.curSlot, 0, g.cap+1)
			}
			continue
		}
		var d uint32
		switch g.cap {
		case 2:
			if tags[base+1] == line {
				d = 1
			} else {
				d = 2
			}
			tags[base+1] = tags[base]
			tags[base] = line
		case 4:
			t0, t1, t2 := tags[base], tags[base+1], tags[base+2]
			if t1 == line {
				d = 1
			} else if t2 == line {
				d = 2
				tags[base+2] = t1
			} else {
				if tags[base+3] == line {
					d = 3
				} else {
					d = 4
				}
				tags[base+3] = t2
				tags[base+2] = t1
			}
			tags[base+1] = t0
			tags[base] = line
		default:
			t := tags[base : base+g.cap]
			d = g.cap // depth >= cap / absent: the all-miss bucket
			for w := uint32(1); w < g.cap; w++ {
				if t[w] == line {
					copy(t[1:w+1], t[:w])
					t[0] = line
					d = w
					break
				}
			}
			if d == g.cap {
				copy(t[1:], t[:g.cap-1])
				t[0] = line
			}
		}
		g.hist[d]++
		if g.contrib != nil {
			addContrib(g.sq, &g.contrib, s.curSlot, d, g.cap+1)
		}
		// Geometries with assoc <= d missed L1; their L2 streams see
		// this line. pairs is ascending by assoc.
		for pi := range g.pairs {
			p := &g.pairs[pi]
			if p.assoc > d {
				break
			}
			for li := range p.l2 {
				probeGeomL2(&p.l2[li], line, s.curSlot)
			}
		}
	}
}

// probeGeomL2 descends one second-level recency stack, mirroring the
// first-level policy (find depth, move/install to MRU, record).
func probeGeomL2(l2 *geomL2, line, slot uint32) {
	base := (line & l2.mask) * l2.cap
	t := l2.tags[base : base+l2.cap]
	if t[0] == line {
		l2.hist[0]++
		if l2.contrib != nil {
			addContrib(l2.sq, &l2.contrib, slot, 0, l2.cap+1)
		}
		return
	}
	d := l2.cap
	for w := uint32(1); w < l2.cap; w++ {
		if t[w] == line {
			copy(t[1:w+1], t[:w])
			t[0] = line
			d = w
			break
		}
	}
	if d == l2.cap {
		copy(t[1:], t[:l2.cap-1])
		t[0] = line
	}
	l2.hist[d]++
	if l2.contrib != nil {
		addContrib(l2.sq, &l2.contrib, slot, d, l2.cap+1)
	}
}

// slotFor returns the dense slot index of a kept line, assigning the
// next free one on first sight. One map access per probed line replaces
// the per-(line,depth) hashing every stack level used to pay.
func (s *GeomSim) slotFor(line uint32) uint32 {
	if slot, ok := s.sampleSeen[line]; ok {
		return slot
	}
	slot := uint32(len(s.sampleSeen))
	s.sampleSeen[line] = slot
	return slot
}

// addContrib folds one more depth-d probe of the kept line at slot into
// the per-bucket sum-of-squared-contributions: (c+1)^2 - c^2 = 2c+1.
// The flat counters are indexed slot*stride+d (stride = cap+1) and
// extended with zeros as new slots appear; append's doubling keeps the
// growth amortized-free and ResetSampled's clear keeps the capacity.
func addContrib(sq []uint64, contrib *[]uint32, slot, d, stride uint32) {
	idx := int(slot)*int(stride) + int(d)
	if idx >= len(*contrib) {
		*contrib = append(*contrib, make([]uint32, idx+1-len(*contrib))...)
	}
	c := (*contrib)[idx]
	sq[d] += uint64(c)*2 + 1
	(*contrib)[idx] = c + 1
}

// finalize folds deferred skip-window hits into every group's depth-0
// bucket. Idempotent; called before any histogram read.
func (s *GeomSim) finalize() {
	if s.winHits == 0 {
		return
	}
	for gi := range s.groups {
		s.groups[gi].hist[0] += s.winHits
	}
	s.winHits = 0
}

// Probes returns the total line probes walked so far.
func (s *GeomSim) Probes() uint64 { return s.probes }

// Pipelined returns the accumulated pipelined extra words implied by
// the family's shared line size.
func (s *GeomSim) Pipelined() uint64 { return s.pipelined }

// CountsFor derives one configuration's exact probe outcome — L1 hits,
// L2 hits, DRAM fills — from the pass, together with the family's
// pipelined word count. ok is false when the configuration is outside
// the covered cross product. Only the probe-dependent fields of Counts
// are set; the caller merges the platform-invariant ones.
func (s *GeomSim) CountsFor(cfg Config) (Counts, uint64, bool) {
	s.finalize()
	c, ok := countsFromHists(cfg, s.lineBytes, s.probes, s.rateShift, func(s1 uint32) ([]uint64, bool) {
		for gi := range s.groups {
			if g := &s.groups[gi]; g.sets == s1 {
				return g.hist[:g.cap], true
			}
		}
		return nil, false
	}, func(s1, a1, s2 uint32) ([]uint64, bool) {
		for gi := range s.groups {
			g := &s.groups[gi]
			if g.sets != s1 {
				continue
			}
			for pi := range g.pairs {
				p := &g.pairs[pi]
				if p.assoc != a1 {
					continue
				}
				for li := range p.l2 {
					if l2 := &p.l2[li]; l2.sets == s2 {
						return l2.hist[:l2.cap], true
					}
				}
			}
		}
		return nil, false
	})
	return c, s.pipelined, ok
}

// countsFromHists is the shared arithmetic of CountsFor on a live
// kernel and on a persisted ReuseProfile: resolve the configuration's
// effective geometry against the depth histograms. The histogram
// lookups return the tracked-depth bucket slice (without the deeper-
// than-tracked bucket, which never contributes to a hit sum). With a
// nonzero sample shift the raw bucket sums cover only the kept line
// subset and are re-scaled by 1<<shift into unbiased estimates, each
// clamped to what remains of the exact probe total so the derived
// Counts always account for exactly probes.
func countsFromHists(cfg Config, lineBytes uint32, probes uint64, sampleShift uint32,
	l1hist func(s1 uint32) ([]uint64, bool),
	l2hist func(s1, a1, s2 uint32) ([]uint64, bool)) (Counts, bool) {
	if effectiveLine(cfg) != lineBytes || !GeomEligible(cfg) {
		return Counts{}, false
	}
	s1, a1 := effectiveGeometry(cfg.L1)
	s2, a2 := effectiveGeometry(cfg.L2)
	h1, ok := l1hist(s1)
	if !ok || uint64(a1) > uint64(len(h1)) {
		return Counts{}, false
	}
	var l1Hits uint64
	for _, n := range h1[:a1] {
		l1Hits += n
	}
	h2, ok := l2hist(s1, a1, s2)
	if !ok || uint64(a2) > uint64(len(h2)) {
		return Counts{}, false
	}
	var l2Hits uint64
	for _, n := range h2[:a2] {
		l2Hits += n
	}
	l1Hits = scaleCount(l1Hits, sampleShift, probes)
	l2Hits = scaleCount(l2Hits, sampleShift, probes-l1Hits)
	return Counts{
		L1Hits:    l1Hits,
		L2Hits:    l2Hits,
		DRAMFills: probes - l1Hits - l2Hits,
	}, true
}

// scaleCount re-scales a raw sampled bucket sum by 1<<shift, clamped to
// limit. raw > limit>>shift iff raw<<shift > limit (for power-of-two
// divisors), so the comparison doubles as the overflow guard; shift 0
// returns raw untouched, keeping the exact path bit-identical.
func scaleCount(raw uint64, sampleShift uint32, limit uint64) uint64 {
	if sampleShift == 0 {
		return raw
	}
	if raw > limit>>sampleShift {
		return limit
	}
	return raw << sampleShift
}

// Profile snapshots the pass into a persistable ReuseProfile. The
// platform-invariant stream aggregates (word counts, op cycles, peak)
// are not the kernel's to know; the replay layer fills them in before
// the profile is cached.
func (s *GeomSim) Profile() *ReuseProfile {
	s.finalize()
	p := &ReuseProfile{
		LineBytes:   s.lineBytes,
		Probes:      s.probes,
		Pipelined:   s.pipelined,
		SampleShift: s.rateShift,
	}
	if s.rateShift > 0 {
		p.SampledProbes = s.sampledProbes
		p.SampledLines = uint64(len(s.sampleSeen))
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		e := L1Profile{
			Sets: g.sets,
			Hist: append([]uint64(nil), g.hist[:g.cap]...),
			Deep: g.hist[g.cap],
		}
		if g.sq != nil {
			e.Sq = append([]uint64(nil), g.sq...)
		}
		p.L1 = append(p.L1, e)
		for pi := range g.pairs {
			pair := &g.pairs[pi]
			for li := range pair.l2 {
				l2 := &pair.l2[li]
				e2 := L2Profile{
					L1Sets:  g.sets,
					L1Assoc: pair.assoc,
					L2Sets:  l2.sets,
					Hist:    append([]uint64(nil), l2.hist[:l2.cap]...),
					Deep:    l2.hist[l2.cap],
				}
				if l2.sq != nil {
					e2.Sq = append([]uint64(nil), l2.sq...)
				}
				p.L2 = append(p.L2, e2)
			}
		}
	}
	return p
}

// ReuseProfile is the persistable outcome of one GeomSim pass over one
// access stream: compact per-line-size stack-distance histograms plus
// the stream's platform-invariant aggregates. It answers any
// configuration inside its covered cross product (Covers) by pure
// arithmetic — CountsFor is bit-identical to replaying the stream —
// which is what turns a warm platform sweep over cached identities into
// zero probe passes. A profile is immutable once built and safe for
// concurrent reads.
type ReuseProfile struct {
	LineBytes uint32
	Probes    uint64 // total line probes of the stream at this line size
	Pipelined uint64 // pipelined extra words at this line size

	// Platform-invariant aggregates of the stream the profile was built
	// from, so a profile-served cost needs no stream at all.
	ReadWords  uint64
	WriteWords uint64
	OpCycles   uint64
	Peak       uint64

	// Spatial-sampling descriptor (zero on exact profiles).
	// SampleShift k means the histograms were collected over a
	// hash-selected 2^-k fraction of the distinct lines: they sum to
	// SampledProbes (of SampledLines distinct kept lines), and CountsFor
	// re-scales bucket sums by 2^k into unbiased estimates whose
	// confidence interval RelCI reports. Probes, Pipelined and the
	// platform-invariant aggregates above remain exact regardless.
	SampleShift   uint32
	SampledProbes uint64
	SampledLines  uint64

	L1 []L1Profile // ascending by Sets
	L2 []L2Profile // ascending by (L1Sets, L1Assoc, L2Sets)
}

// L1Profile is the per-set stack-distance histogram for one L1 set
// count: Hist[d] probes hit at depth d, Deep probes at depth >=
// len(Hist) or absent (a miss for every associativity <= len(Hist)).
// On a sampled profile Sq carries the per-bucket variance ingredient
// (sum over kept lines of squared per-line contributions), one entry
// per Hist bucket plus one for Deep; nil on exact profiles.
type L1Profile struct {
	Sets uint32
	Hist []uint64
	Deep uint64
	Sq   []uint64
}

// L2Profile is the second-level histogram for one (L1 geometry, L2 set
// count): the stack distances of the L1 geometry's miss stream. Sq as
// in L1Profile.
type L2Profile struct {
	L1Sets  uint32
	L1Assoc uint32
	L2Sets  uint32
	Hist    []uint64
	Deep    uint64
	Sq      []uint64
}

// sampledTotal is what every L1 histogram of the profile must sum to:
// the kept-subset probe count under sampling, the exact probe count
// otherwise.
func (p *ReuseProfile) sampledTotal() uint64 {
	if p.SampleShift > 0 {
		return p.SampledProbes
	}
	return p.Probes
}

// CountsFor derives one configuration's exact probe outcome from the
// profile, with the platform-invariant word/op counters filled in; the
// second result is the pipelined word count for CyclesFor. ok is false
// when the configuration is outside the covered cross product.
func (p *ReuseProfile) CountsFor(cfg Config) (Counts, uint64, bool) {
	c, ok := countsFromHists(cfg, p.LineBytes, p.Probes, p.SampleShift, func(s1 uint32) ([]uint64, bool) {
		for i := range p.L1 {
			if p.L1[i].Sets == s1 {
				return p.L1[i].Hist, true
			}
		}
		return nil, false
	}, func(s1, a1, s2 uint32) ([]uint64, bool) {
		for i := range p.L2 {
			e := &p.L2[i]
			if e.L1Sets == s1 && e.L1Assoc == a1 && e.L2Sets == s2 {
				return e.Hist, true
			}
		}
		return nil, false
	})
	if !ok {
		return Counts{}, 0, false
	}
	c.ReadWords = p.ReadWords
	c.WriteWords = p.WriteWords
	c.OpCycles = p.OpCycles
	return c, p.Pipelined, true
}

// Covers reports whether the configuration lies inside the profile's
// covered cross product.
func (p *ReuseProfile) Covers(cfg Config) bool {
	_, _, ok := p.CountsFor(cfg)
	return ok
}

// Sampled reports whether the profile's histograms are sampled
// estimates (SampleShift > 0) rather than exact counts.
func (p *ReuseProfile) Sampled() bool { return p.SampleShift > 0 }

// ciZ is the z-score of RelCI's confidence interval: +-3 sigma, ~99.7%
// under the normal approximation of the sampling estimator.
const ciZ = 3.0

// RelCI returns the relative half-width of the confidence interval on
// the configuration's estimated hit/miss split: the derived objective
// lies within (1 +- RelCI) of its exact value with high probability
// (~ciZ sigma; the coverage rate is pinned empirically by the sampling
// property test in astream). Exact profiles — and profiles that do not
// cover cfg, which have no estimate to bound — report 0; the caller
// gates on Covers. The width combines the delta-method variance of the
// scaled bucket sums, Var = (1-R)/R^2 * sum(c_l^2), evaluated over the
// configuration's own L1/L2 histogram entries, with a small-sample
// allowance ~1/sqrt(kept lines) that dominates when the filter kept too
// few lines to trust the normal approximation, and is capped at 1
// (an estimate can never be vouched for tighter than +-100%).
func (p *ReuseProfile) RelCI(cfg Config) float64 {
	if p.SampleShift == 0 || p.Probes == 0 || !p.Covers(cfg) {
		return 0
	}
	s1, a1 := effectiveGeometry(cfg.L1)
	s2, _ := effectiveGeometry(cfg.L2)
	var sq uint64
	for i := range p.L1 {
		if p.L1[i].Sets == s1 {
			for _, v := range p.L1[i].Sq {
				sq += v
			}
			break
		}
	}
	for i := range p.L2 {
		e := &p.L2[i]
		if e.L1Sets == s1 && e.L1Assoc == a1 && e.L2Sets == s2 {
			for _, v := range e.Sq {
				sq += v
			}
			break
		}
	}
	r := 1 / float64(uint64(1)<<p.SampleShift)
	variance := (1 - r) / (r * r) * float64(sq)
	rel := ciZ*math.Sqrt(variance)/float64(p.Probes) + ciZ/math.Sqrt(float64(p.SampledLines)+1)
	if rel > 1 {
		rel = 1
	}
	return rel
}

// Merge combines two profiles of the SAME stream at the same line size
// into one covering everything either covered: the union of their
// histogram entries, keeping the deeper histogram where keys collide
// (two passes over one stream agree wherever they overlap, a deeper
// stack merely refines the shallower one's deep bucket). The exploration
// cache merges on store so a later narrow-family pass can never shrink
// an identity's accumulated coverage. If o is not mergeable — different
// line size or stream aggregates, so not the same stream — p is
// returned unchanged.
func (p *ReuseProfile) Merge(o *ReuseProfile) *ReuseProfile {
	if o == nil {
		return p
	}
	if p.LineBytes != o.LineBytes || p.Probes != o.Probes || p.Pipelined != o.Pipelined ||
		p.ReadWords != o.ReadWords || p.WriteWords != o.WriteWords ||
		p.OpCycles != o.OpCycles || p.Peak != o.Peak ||
		p.SampleShift != o.SampleShift || p.SampledProbes != o.SampledProbes ||
		p.SampledLines != o.SampledLines {
		return p
	}
	out := &ReuseProfile{
		LineBytes: p.LineBytes, Probes: p.Probes, Pipelined: p.Pipelined,
		ReadWords: p.ReadWords, WriteWords: p.WriteWords,
		OpCycles: p.OpCycles, Peak: p.Peak,
		SampleShift: p.SampleShift, SampledProbes: p.SampledProbes,
		SampledLines: p.SampledLines,
	}
	out.L1 = append(out.L1, p.L1...)
	for _, e := range o.L1 {
		if i, ok := findL1(out.L1, e.Sets); !ok {
			out.L1 = append(out.L1, e)
		} else if len(e.Hist) > len(out.L1[i].Hist) {
			out.L1[i] = e
		}
	}
	sortL1(out.L1)
	out.L2 = append(out.L2, p.L2...)
	for _, e := range o.L2 {
		if i, ok := findL2(out.L2, e.L1Sets, e.L1Assoc, e.L2Sets); !ok {
			out.L2 = append(out.L2, e)
		} else if len(e.Hist) > len(out.L2[i].Hist) {
			out.L2[i] = e
		}
	}
	sortL2(out.L2)
	// The union must stay re-decodable: UnmarshalBinary hard-rejects
	// profiles past the entry caps, so a merge that would exceed them
	// keeps the newer profile's coverage instead of accumulating an
	// encodable-but-unloadable one into the persistent cache.
	if len(out.L1) > maxProfileL1 || len(out.L2) > maxProfileL2 {
		return p
	}
	return out
}

func findL1(l []L1Profile, sets uint32) (int, bool) {
	for i := range l {
		if l[i].Sets == sets {
			return i, true
		}
	}
	return 0, false
}

func findL2(l []L2Profile, s1, a1, s2 uint32) (int, bool) {
	for i := range l {
		if l[i].L1Sets == s1 && l[i].L1Assoc == a1 && l[i].L2Sets == s2 {
			return i, true
		}
	}
	return 0, false
}

func sortL1(l []L1Profile) {
	sort.Slice(l, func(i, j int) bool { return l[i].Sets < l[j].Sets })
}

func sortL2(l []L2Profile) {
	sort.Slice(l, func(i, j int) bool { return lessL2Key(&l[i], &l[j]) })
}

// SizeBytes reports the profile's approximate retained size, for the
// exploration cache's stream budget.
func (p *ReuseProfile) SizeBytes() int {
	n := 104
	for i := range p.L1 {
		n += 16 + 8*len(p.L1[i].Hist) + 8*len(p.L1[i].Sq)
	}
	for i := range p.L2 {
		n += 24 + 8*len(p.L2[i].Hist) + 8*len(p.L2[i].Sq)
	}
	return n
}

// String summarizes the profile for logs.
func (p *ReuseProfile) String() string {
	return fmt.Sprintf("memsim.ReuseProfile{%dB lines, %d probes, %d L1 set counts, %d L2 histograms, %dB}",
		p.LineBytes, p.Probes, len(p.L1), len(p.L2), p.SizeBytes())
}

// Binary encoding of a ReuseProfile: a magic/version byte followed by
// uvarint fields, histograms length-prefixed. Decoding validates
// structure hard — power-of-two geometry, canonical ordering, and that
// every histogram sums (with its Deep bucket) to exactly the probe
// count its level must account for — so a corrupt or truncated profile
// errors instead of silently miscounting. The platform-invariant
// aggregates are followed by the spatial-sampling descriptor
// (SampleShift, and when nonzero SampledProbes/SampledLines plus
// per-entry Sq variance arrays). Only the current version decodes;
// profiles live in the exploration cache, a memo a cold run rebuilds.
const (
	reuseProfileMagic   = 0xD7 // first byte of every encoded profile
	reuseProfileVersion = 4

	maxProfileHist = 64   // depth buckets per histogram
	maxProfileL1   = 64   // L1 set counts
	maxProfileL2   = 4096 // (L1 geometry, L2 set count) histograms
)

// MarshalBinary encodes the profile (encoding.BinaryMarshaler).
func (p *ReuseProfile) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, p.SizeBytes())
	b = append(b, reuseProfileMagic, reuseProfileVersion)
	b = binary.AppendUvarint(b, uint64(p.LineBytes))
	b = binary.AppendUvarint(b, p.Probes)
	b = binary.AppendUvarint(b, p.Pipelined)
	b = binary.AppendUvarint(b, p.ReadWords)
	b = binary.AppendUvarint(b, p.WriteWords)
	b = binary.AppendUvarint(b, p.OpCycles)
	b = binary.AppendUvarint(b, p.Peak)
	b = binary.AppendUvarint(b, uint64(p.SampleShift))
	if p.SampleShift > 0 {
		b = binary.AppendUvarint(b, p.SampledProbes)
		b = binary.AppendUvarint(b, p.SampledLines)
	}
	b = binary.AppendUvarint(b, uint64(len(p.L1)))
	for i := range p.L1 {
		e := &p.L1[i]
		b = binary.AppendUvarint(b, uint64(e.Sets))
		b = binary.AppendUvarint(b, uint64(len(e.Hist)))
		for _, n := range e.Hist {
			b = binary.AppendUvarint(b, n)
		}
		b = binary.AppendUvarint(b, e.Deep)
		if p.SampleShift > 0 {
			b = appendSq(b, e.Sq, len(e.Hist)+1)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(p.L2)))
	for i := range p.L2 {
		e := &p.L2[i]
		b = binary.AppendUvarint(b, uint64(e.L1Sets))
		b = binary.AppendUvarint(b, uint64(e.L1Assoc))
		b = binary.AppendUvarint(b, uint64(e.L2Sets))
		b = binary.AppendUvarint(b, uint64(len(e.Hist)))
		for _, n := range e.Hist {
			b = binary.AppendUvarint(b, n)
		}
		b = binary.AppendUvarint(b, e.Deep)
		if p.SampleShift > 0 {
			b = appendSq(b, e.Sq, len(e.Hist)+1)
		}
	}
	return b, nil
}

// appendSq writes exactly n variance entries (one per histogram bucket
// plus the deep bucket), zero-padding a short slice so the encoded form
// always has the length the decoder expects.
func appendSq(b []byte, sq []uint64, n int) []byte {
	for j := 0; j < n; j++ {
		var v uint64
		if j < len(sq) {
			v = sq[j]
		}
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// profileDecoder walks an encoded profile with truncation checking.
type profileDecoder struct {
	b   []byte
	pos int
}

func (d *profileDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("memsim: truncated reuse profile at byte %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// u32 decodes a uvarint that must fit 32 bits.
func (d *profileDecoder) u32(what string) (uint32, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<32-1 {
		return 0, fmt.Errorf("memsim: reuse profile %s %d overflows 32 bits", what, v)
	}
	return uint32(v), nil
}

// hist decodes one length-prefixed histogram plus its Deep bucket and
// verifies it sums to exactly total.
func (d *profileDecoder) hist(total uint64) ([]uint64, uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if n == 0 || n > maxProfileHist {
		return nil, 0, fmt.Errorf("memsim: reuse profile histogram depth %d out of range", n)
	}
	h := make([]uint64, n)
	var sum uint64
	for i := range h {
		if h[i], err = d.uvarint(); err != nil {
			return nil, 0, err
		}
		if sum += h[i]; sum < h[i] {
			return nil, 0, fmt.Errorf("memsim: reuse profile histogram overflows")
		}
	}
	deep, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if s := sum + deep; s < sum || s != total {
		return nil, 0, fmt.Errorf("memsim: reuse profile histogram sums to %d+%d, want %d", sum, deep, total)
	}
	return h, deep, nil
}

// sq decodes one variance array (len(hist)+1 entries, the deep bucket
// last) and validates it against the histogram it annotates: each
// bucket's sum of squared per-line contributions lies between the
// bucket count (every contribution is >= 1) and its square (the
// one-line extreme) — in particular it is zero exactly when the bucket
// is. The upper check is skipped for counts whose square would not fit
// 64 bits.
func (d *profileDecoder) sq(hist []uint64, deep uint64) ([]uint64, error) {
	out := make([]uint64, len(hist)+1)
	for i := range out {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		h := deep
		if i < len(hist) {
			h = hist[i]
		}
		if v < h || (h < 1<<32 && v > h*h) {
			return nil, fmt.Errorf("memsim: reuse profile variance entry %d inconsistent with bucket count %d", v, h)
		}
		out[i] = v
	}
	return out, nil
}

func pow2u32(v uint32) bool { return v != 0 && v&(v-1) == 0 }

// UnmarshalBinary decodes and validates an encoded profile
// (encoding.BinaryUnmarshaler). Corrupt, truncated or inconsistent
// input returns an error; it never panics and never yields a profile
// whose histograms disagree with its probe count.
func (p *ReuseProfile) UnmarshalBinary(data []byte) error {
	if len(data) < 2 || data[0] != reuseProfileMagic {
		return fmt.Errorf("memsim: not a reuse profile")
	}
	if version := data[1]; version != reuseProfileVersion {
		return fmt.Errorf("memsim: unsupported reuse profile version %d", version)
	}
	d := profileDecoder{b: data, pos: 2}
	var out ReuseProfile
	var err error
	if out.LineBytes, err = d.u32("line size"); err != nil {
		return err
	}
	if !pow2u32(out.LineBytes) {
		return fmt.Errorf("memsim: reuse profile line size %d not a power of two", out.LineBytes)
	}
	if out.Probes, err = d.uvarint(); err != nil {
		return err
	}
	if out.Pipelined, err = d.uvarint(); err != nil {
		return err
	}
	if out.ReadWords, err = d.uvarint(); err != nil {
		return err
	}
	if out.WriteWords, err = d.uvarint(); err != nil {
		return err
	}
	if out.OpCycles, err = d.uvarint(); err != nil {
		return err
	}
	if out.Peak, err = d.uvarint(); err != nil {
		return err
	}
	if out.SampleShift, err = d.u32("sample shift"); err != nil {
		return err
	}
	if out.SampleShift > MaxSampleShift {
		return fmt.Errorf("memsim: reuse profile sample shift %d exceeds max %d", out.SampleShift, MaxSampleShift)
	}
	if out.SampleShift > 0 {
		if out.SampledProbes, err = d.uvarint(); err != nil {
			return err
		}
		if out.SampledLines, err = d.uvarint(); err != nil {
			return err
		}
		// The kept subset is a subset: its probe count can never exceed
		// the exact total, its line count never the probe count, and a
		// nonzero probe count implies at least one kept line (every
		// sampled probe is of a kept line).
		if out.SampledProbes > out.Probes {
			return fmt.Errorf("memsim: reuse profile sampled probes %d exceed %d probes", out.SampledProbes, out.Probes)
		}
		if out.SampledLines > out.SampledProbes {
			return fmt.Errorf("memsim: reuse profile sampled lines %d exceed %d sampled probes", out.SampledLines, out.SampledProbes)
		}
		if out.SampledProbes > 0 && out.SampledLines == 0 {
			return fmt.Errorf("memsim: reuse profile has %d sampled probes but no sampled lines", out.SampledProbes)
		}
	}

	n1, err := d.uvarint()
	if err != nil {
		return err
	}
	if n1 > maxProfileL1 {
		return fmt.Errorf("memsim: reuse profile has %d L1 histograms, max %d", n1, maxProfileL1)
	}
	out.L1 = make([]L1Profile, n1)
	for i := range out.L1 {
		e := &out.L1[i]
		if e.Sets, err = d.u32("L1 set count"); err != nil {
			return err
		}
		if !pow2u32(e.Sets) {
			return fmt.Errorf("memsim: reuse profile L1 set count %d not a power of two", e.Sets)
		}
		if i > 0 && e.Sets <= out.L1[i-1].Sets {
			return fmt.Errorf("memsim: reuse profile L1 set counts not strictly ascending")
		}
		if e.Hist, e.Deep, err = d.hist(out.sampledTotal()); err != nil {
			return err
		}
		if out.SampleShift > 0 {
			if e.Sq, err = d.sq(e.Hist, e.Deep); err != nil {
				return err
			}
		}
	}

	n2, err := d.uvarint()
	if err != nil {
		return err
	}
	if n2 > maxProfileL2 {
		return fmt.Errorf("memsim: reuse profile has %d L2 histograms, max %d", n2, maxProfileL2)
	}
	out.L2 = make([]L2Profile, n2)
	for i := range out.L2 {
		e := &out.L2[i]
		if e.L1Sets, err = d.u32("L2 histogram L1 set count"); err != nil {
			return err
		}
		if e.L1Assoc, err = d.u32("L2 histogram L1 assoc"); err != nil {
			return err
		}
		if e.L2Sets, err = d.u32("L2 set count"); err != nil {
			return err
		}
		if !pow2u32(e.L2Sets) {
			return fmt.Errorf("memsim: reuse profile L2 set count %d not a power of two", e.L2Sets)
		}
		if i > 0 {
			prev := &out.L2[i-1]
			if [3]uint32{e.L1Sets, e.L1Assoc, e.L2Sets} == [3]uint32{prev.L1Sets, prev.L1Assoc, prev.L2Sets} ||
				lessL2Key(e, prev) {
				return fmt.Errorf("memsim: reuse profile L2 histograms not strictly ascending")
			}
		}
		// The L2 histogram accounts exactly for its L1 geometry's miss
		// stream: find the L1 entry and cross-check.
		var misses uint64
		found := false
		for j := range out.L1 {
			l1 := &out.L1[j]
			if l1.Sets != e.L1Sets {
				continue
			}
			if e.L1Assoc == 0 || uint64(e.L1Assoc) > uint64(len(l1.Hist)) {
				return fmt.Errorf("memsim: reuse profile L2 histogram references untracked L1 assoc %d at %d sets", e.L1Assoc, e.L1Sets)
			}
			misses = out.sampledTotal()
			for _, n := range l1.Hist[:e.L1Assoc] {
				misses -= n
			}
			found = true
			break
		}
		if !found {
			return fmt.Errorf("memsim: reuse profile L2 histogram references unknown L1 set count %d", e.L1Sets)
		}
		if e.Hist, e.Deep, err = d.hist(misses); err != nil {
			return err
		}
		if out.SampleShift > 0 {
			if e.Sq, err = d.sq(e.Hist, e.Deep); err != nil {
				return err
			}
		}
	}
	if d.pos != len(data) {
		return fmt.Errorf("memsim: %d trailing bytes after reuse profile", len(data)-d.pos)
	}
	*p = out
	return nil
}

// lessL2Key orders L2 histogram keys lexicographically.
func lessL2Key(a, b *L2Profile) bool {
	if a.L1Sets != b.L1Sets {
		return a.L1Sets < b.L1Sets
	}
	if a.L1Assoc != b.L1Assoc {
		return a.L1Assoc < b.L1Assoc
	}
	return a.L2Sets < b.L2Sets
}

// GobEncode/GobDecode let the exploration cache persist profiles inside
// its gob cache files using the compact binary form.
func (p *ReuseProfile) GobEncode() ([]byte, error)  { return p.MarshalBinary() }
func (p *ReuseProfile) GobDecode(data []byte) error { return p.UnmarshalBinary(data) }
