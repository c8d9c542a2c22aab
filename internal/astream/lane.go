package astream

import (
	"math/bits"

	"repro/internal/memsim"
)

// ReplayLaneProfiled evaluates one lane's sub-stream in ISOLATION — the
// lane's accesses alone, in recorded order, with no other lane
// interleaved — through the all-geometry kernel, returning one reuse
// profile per line-size family of cfgs. This is NOT an exact replay of
// anything the application does; it is the raw material of the
// admissible combination lower bound (memsim.BoundFromProfile): by LRU
// stack inclusion the isolated pass's L1 hit counts upper-bound the
// lane's hits inside any composed interleave, and the profile's
// ColdLines (distinct lines touched, a floor on composed DRAM fills),
// Peak (the lane's own footprint high water) and EndLive (live bytes at
// run end) complete the closed-form bound ingredients. ~10·K of these
// cheap passes cover every lane of a 10^K combination space.
//
// Only GeomSim-eligible configurations produce profiles; ineligible
// ones are probed but yield nothing (callers gate on
// memsim.BoundEligible anyway).
func ReplayLaneProfiled(u *UnpackedLane, cfgs []memsim.Config) []*memsim.ReuseProfile {
	return replayLaneProfiled(u, cfgs, 0)
}

// ReplayLaneProfiledSampled is ReplayLaneProfiled at spatial sample
// rate 2^-sampleShift. The bound ingredients that must stay exact for
// admissibility — ColdLines (distinct-line walk), Peak and EndLive
// (liveness walk), and the invariant counters — are computed exactly
// regardless of the rate; only the depth histograms are sampled, so
// bounds derived from the profile become interval estimates (widen by
// RelCI before using them to cut). Shift 0 is exactly
// ReplayLaneProfiled.
func ReplayLaneProfiledSampled(u *UnpackedLane, cfgs []memsim.Config, sampleShift uint32) []*memsim.ReuseProfile {
	return replayLaneProfiled(u, cfgs, sampleShift)
}

func replayLaneProfiled(u *UnpackedLane, cfgs []memsim.Config, sampleShift uint32) []*memsim.ReuseProfile {
	sc := getScratch()
	defer putScratch(sc)
	plan := sc.planFor(cfgs, true, sampleShift)
	if sampleShift != 0 && len(plan.sims) == 0 {
		// Whole-lane pass through the memoized sampled view: one run
		// spanning every segment.
		for _, gs := range plan.geoms {
			v := u.viewFor(uint32(bits.TrailingZeros32(gs.LineBytes())), sampleShift)
			v.probeRun(gs, 0, len(u.SegOps))
		}
	} else {
		if sampleShift == 0 {
			// An exact pass counts its own distinct lines as it walks,
			// sparing the separate distinctLines sweep below.
			for _, gs := range plan.geoms {
				gs.TrackColdLines()
			}
		}
		plan.probe(u.Addr, u.Size)
	}

	var inv memsim.Counts
	var live, peak uint64
	for s := range u.SegOps {
		inv.ReadWords += uint64(u.SegReadW[s])
		inv.WriteWords += uint64(u.SegWriteW[s])
		inv.OpCycles += u.SegOps[s]
		live, peak = advanceLive(u.SegMax[s], u.SegEnd[s], live, peak)
	}
	profs := plan.profiles(inv, peak)
	for _, p := range profs {
		p.EndLive = live
		p.ColdLines = 0
		if sampleShift == 0 {
			for _, gs := range plan.geoms {
				if gs.LineBytes() == p.LineBytes {
					p.ColdLines = gs.ColdLines()
					break
				}
			}
		}
		if p.ColdLines == 0 {
			// Sampled pass (or a lane with no probes): the cold-fill
			// floor must stay exact regardless of the rate, so walk the
			// spans separately.
			p.ColdLines = distinctLines(u, p.LineBytes)
		}
	}
	return profs
}

// distinctLines counts the distinct cache lines the lane touches at the
// given (power-of-two) line size.
func distinctLines(u *UnpackedLane, lineBytes uint32) uint64 {
	seen := newLineSet()
	seen.addSpans(u.Addr, u.Size, uint32(bits.TrailingZeros32(lineBytes)))
	return uint64(seen.n)
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
// 2^30: lineBytes is a power of two ≥ 4, so the +1 never wraps).
// distinctLines inserts tens of millions of mostly-repeated lines per
// lane; with the generic map, hashing and bucket chasing dominated the
// whole isolated profiled pass.
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
