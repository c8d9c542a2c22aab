package astream

import (
	"math/bits"

	"repro/internal/memsim"
)

// Isolated suffix tables: the raw material of the guarded composed
// replay's completion bound.
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
// memoized on the lane like its sampled views.

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
	// inv holds the lane's word and op-cycle totals. They do not depend
	// on the geometry; keeping them here spares each guarded replay a
	// segment walk per lane.
	inv memsim.Counts
	// misses[j] and cold[j] count the lane's isolated L1 misses and
	// first-touch lines in segments [0, min(j*isoStride, segments)); the
	// last entry holds the lane totals.
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

// isoSuffixFor returns the lane's isolated suffix table for cfg's L1
// geometry, building and memoizing it on first use. Safe for concurrent
// use. cfg must be memsim.BoundEligible (power-of-two line size).
func (u *UnpackedLane) isoSuffixFor(cfg memsim.Config) *isoSuffix {
	u.memoMu.Lock()
	defer u.memoMu.Unlock()
	if t, ok := u.isos[cfg.L1]; ok {
		return t
	}
	t := buildIsoSuffix(u, cfg)
	if u.isos == nil {
		u.isos = make(map[memsim.CacheGeometry]*isoSuffix)
	}
	u.isos[cfg.L1] = t
	return t
}

// buildIsoSuffix walks the lane alone through a cold LineSim one
// checkpoint block at a time, recording the cumulative L1 misses (L2
// hits plus DRAM fills: which of the two does not depend on L1) and the
// distinct lines touched so far.
func buildIsoSuffix(u *UnpackedLane, cfg memsim.Config) *isoSuffix {
	segs := len(u.SegOps)
	n := (segs+isoStride-1)/isoStride + 1
	t := &isoSuffix{misses: make([]uint64, n), cold: make([]uint64, n)}
	ls := memsim.NewLineSim(cfg)
	shift := uint32(bits.TrailingZeros32(memsim.EffectiveLineBytes(cfg)))
	seen := newLineSet()
	for j := 1; j < n; j++ {
		lo, hi := u.SegIdx[(j-1)*isoStride], u.SegIdx[min(j*isoStride, segs)]
		ls.ProbeAccesses(u.Addr[lo:hi], u.Size[lo:hi])
		seen.addSpans(u.Addr[lo:hi], u.Size[lo:hi], shift)
		t.misses[j] = ls.L2Hits + ls.DRAMFills
		t.cold[j] = uint64(seen.n)
	}
	t.probes, t.pipelined = ls.Probes(), ls.Pipelined()
	for s := range u.SegOps {
		t.inv.ReadWords += uint64(u.SegReadW[s])
		t.inv.WriteWords += uint64(u.SegWriteW[s])
		t.inv.OpCycles += u.SegOps[s]
	}
	return t
}
