package astream

import (
	"math/bits"

	"repro/internal/memsim"
)

// Isolated suffix tables: the raw material of the guarded composed
// replay's completion bound and of every lane bound (LaneBound).
//
// At a poll, a guarded replay has probed every lane up to its cursor
// and must price what is left without probing it. Lanes allocate from
// disjoint arenas, so two per-access arguments price the unprobed
// suffix of each lane from that lane's ISOLATED probe outcomes
// (memsim/bound.go states both):
//
//   - stack inclusion: interleaving other lanes' lines between two
//     touches of a line can only deepen its recency position, so an
//     access that misses L1 in isolation misses L1 composed too and
//     costs at least an L2 hit;
//   - cold fills: a line whose first touch by its lane lies in the
//     suffix has never been touched by anyone, so that probe is a DRAM
//     fill.
//
// Every other unprobed line probe costs at least an L1 hit. The tables
// hold those per-lane counts as prefix sums at segment checkpoints, one
// table per (lane, L1 geometry), built by one isolated LineSim pass and
// memoized on the lane like its sampled views; the first-touch column
// depends on the line size alone and is built once per line size. The
// whole-lane totals (the suffix from segment 0) are the lane bound.

// isoStride is the segment distance between two checkpoints of an
// isolated suffix table. A poll prices a lane's suffix from the first
// checkpoint at or after its cursor; the probes in between are priced
// as L1 hits, the cheapest outcome, so a coarser stride only loosens the
// bound. Eight segments keep the tables at two words per eight segments.
const isoStride = 8

// isoSuffix is one lane's isolated probe outcomes at one L1 geometry.
type isoSuffix struct {
	// probes and pipelined are the lane's exact line probes and
	// pipelined words at the geometry's line size: interleaving changes
	// neither, so a composed replay's totals are the lanes' sums.
	probes    uint64
	pipelined uint64
	// inv holds the lane's word and op-cycle totals, peak its own
	// footprint high water and endLive its live bytes at run end. None
	// depends on the geometry; keeping them here spares each guarded
	// replay and each lane bound a segment walk.
	inv           memsim.Counts
	peak, endLive uint64
	// misses[j] and cold[j] count the lane's isolated L1 misses and
	// first-touch lines in segments [0, min(j*isoStride, segments)); the
	// last entry holds the lane totals. cold depends on the line size
	// alone and is shared by every table of that line size.
	misses []uint64
	cold   []uint64
}

// suffixAt returns the isolated L1 misses and first-touch lines of the
// lane's segments from the first checkpoint at or after cursor to the
// end.
func (t *isoSuffix) suffixAt(cursor int) (misses, cold uint64) {
	j, last := (cursor+isoStride-1)/isoStride, len(t.misses)-1
	return t.misses[last] - t.misses[j], t.cold[last] - t.cold[j]
}

// LaneBound returns the admissible bound ingredients of the lane at cfg
// (memsim.LaneBound documents each argument), read off the lane totals
// of its isolated suffix table: every isolated L1 hit is a candidate
// composed hit, every first touch a composed DRAM fill, and the
// footprint and invariant counts are the lane's own. The table is built
// on first use and memoized on the lane, so the bound and the guarded
// replay's completion bound share one isolated pass. Safe for
// concurrent use. cfg must be memsim.BoundEligible.
func LaneBound(u *UnpackedLane, cfg memsim.Config) memsim.LaneBound {
	t := u.isoSuffixFor(cfg)
	last := len(t.misses) - 1
	return memsim.LaneBound{
		Probes:     t.probes,
		MaxL1Hits:  t.probes - t.misses[last],
		ColdFills:  t.cold[last],
		Pipelined:  t.pipelined,
		ReadWords:  t.inv.ReadWords,
		WriteWords: t.inv.WriteWords,
		OpCycles:   t.inv.OpCycles,
		Peak:       t.peak,
		EndLive:    t.endLive,
	}
}

// isoSuffixFor returns the lane's isolated suffix table for cfg's L1
// geometry, building and memoizing it on first use. Safe for concurrent
// use. cfg must be memsim.BoundEligible (power-of-two line size).
func (u *UnpackedLane) isoSuffixFor(cfg memsim.Config) *isoSuffix {
	u.memoMu.Lock()
	defer u.memoMu.Unlock()
	if t, ok := u.isos[cfg.L1]; ok {
		return t
	}
	shift := uint32(bits.TrailingZeros32(memsim.EffectiveLineBytes(cfg)))
	cold, ok := u.colds[shift]
	if !ok {
		cold = buildColdPrefix(u, shift)
		if u.colds == nil {
			u.colds = make(map[uint32][]uint64)
		}
		u.colds[shift] = cold
	}
	t := buildIsoSuffix(u, cfg.L1, cold)
	if u.isos == nil {
		u.isos = make(map[memsim.CacheGeometry]*isoSuffix)
	}
	u.isos[cfg.L1] = t
	return t
}

// buildIsoSuffix walks the lane alone through a cold LineSim one
// checkpoint block at a time, recording the cumulative L1 misses (L2
// hits plus DRAM fills). Which of the two a miss is does not matter
// here, and L1's outcomes never depend on L2, so the LineSim carries a
// one-line L2 that keeps the walk to the L1 geometry's own cost.
func buildIsoSuffix(u *UnpackedLane, l1 memsim.CacheGeometry, cold []uint64) *isoSuffix {
	t := &isoSuffix{misses: make([]uint64, len(cold)), cold: cold}
	lb := max(l1.LineBytes, 1)
	ls := memsim.NewLineSim(memsim.Config{L1: l1, L2: memsim.CacheGeometry{SizeBytes: lb, LineBytes: lb, Assoc: 1}})
	segs := len(u.SegOps)
	for j := 1; j < len(t.misses); j++ {
		lo, hi := u.SegIdx[(j-1)*isoStride], u.SegIdx[min(j*isoStride, segs)]
		ls.ProbeAccesses(u.Addr[lo:hi], u.Size[lo:hi])
		t.misses[j] = ls.L2Hits + ls.DRAMFills
	}
	t.probes, t.pipelined = ls.Probes(), ls.Pipelined()
	var live uint64
	for s := range u.SegOps {
		t.inv.ReadWords += uint64(u.SegReadW[s])
		t.inv.WriteWords += uint64(u.SegWriteW[s])
		t.inv.OpCycles += u.SegOps[s]
		live, t.peak = advanceLive(u.SegMax[s], u.SegEnd[s], live, t.peak)
	}
	t.endLive = live
	return t
}

// buildColdPrefix counts the distinct lines (at line size 1<<shift) the
// lane has touched by each checkpoint: the first-touch column of every
// isolated suffix table of that line size.
func buildColdPrefix(u *UnpackedLane, shift uint32) []uint64 {
	segs := len(u.SegOps)
	cold := make([]uint64, (segs+isoStride-1)/isoStride+1)
	seen := newLineSet()
	for j := 1; j < len(cold); j++ {
		lo, hi := u.SegIdx[(j-1)*isoStride], u.SegIdx[min(j*isoStride, segs)]
		seen.addSpans(u.Addr[lo:hi], u.Size[lo:hi], shift)
		cold[j] = uint64(seen.n)
	}
	return cold
}

// addSpans inserts every line the accesses touch at line size 1<<shift,
// walking spans exactly as the probe kernels do — including the
// zero-size skip and the 32-bit wrap case the hierarchy probes no lines
// for.
func (s *lineSet) addSpans(addrs, sizes []uint32, shift uint32) {
	prev := ^uint32(0)
	for i, addr := range addrs {
		size := sizes[i]
		if size == 0 {
			continue
		}
		first := addr >> shift
		last := (addr + size - 1) >> shift
		if last < first {
			continue // addr+size wraps the 32-bit space
		}
		if first == prev && last == prev {
			continue // spatial locality: same single line as last access
		}
		for line := first; ; line++ {
			s.add(line)
			if line == last {
				break
			}
		}
		prev = last
	}
}

// lineSet is a linear-probing hash set of cache-line numbers, stored as
// line+1 so a zero word marks an empty slot (line numbers stay below
// 2^30: lineBytes is a power of two ≥ 4, so the +1 never wraps). A lane
// inserts millions of mostly-repeated lines; with the generic map,
// hashing and bucket chasing dominated the first-touch walk.
type lineSet struct {
	slots []uint32
	n     int
}

func newLineSet() *lineSet { return &lineSet{slots: make([]uint32, 1<<14)} }

func (s *lineSet) add(line uint32) {
	key := line + 1
	mask := uint32(len(s.slots) - 1)
	i := (key * 2654435761) & mask
	for {
		switch s.slots[i] {
		case key:
			return
		case 0:
			s.slots[i] = key
			if s.n++; s.n >= len(s.slots)/2 {
				s.grow()
			}
			return
		}
		i = (i + 1) & mask
	}
}

func (s *lineSet) grow() {
	old := s.slots
	s.slots = make([]uint32, len(old)*2)
	mask := uint32(len(s.slots) - 1)
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := (key * 2654435761) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = key
	}
}
