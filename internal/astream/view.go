package astream

import "repro/internal/memsim"

// Sampled lane views: the SHARDS filter hoisted out of the replay loop.
//
// A sampled composed replay needs, per scheduled segment run, (a) the
// exact line-probe and pipelined-word counts of the run — invariant
// under sampling — and (b) the hash-kept subsequence of the run's
// lines to descend the miniature recency stacks. Both are pure
// functions of the lane's fixed (Addr, Size) arrays, the line size and
// the sample shift: nothing about them depends on which combination
// the lane is composed into or which platform is probed. So they are
// computed once per (lane, line shift, sample shift) — one full walk
// with one hash per line — and memoized on the UnpackedLane; every
// subsequent sampled replay of any combination containing the lane
// walks only O(segments + kept lines) instead of O(lines). This is
// what makes screening a combination space at R << 1 pay: the
// per-lane filter pass is amortized over the 10^K combinations the
// lane appears in.
type sampledView struct {
	// kept holds the hash-selected line indices in probe order.
	kept []uint32
	// segKept[s] is the offset into kept at segment s's start
	// (len = segments+1), so a run of segments [s0, s1) probes
	// kept[segKept[s0]:segKept[s1]].
	segKept []uint32
	// segProbes and segPipe are prefix sums (len = segments+1) of the
	// exact line-probe and pipelined-word counts, so any run's exact
	// invariant contribution is two O(1) differences.
	segProbes []uint64
	segPipe   []uint64
}

// viewKey packs a (line shift, sample shift) pair; both are < 32.
func viewKey(lineShift, sampleShift uint32) uint32 { return lineShift<<8 | sampleShift }

// viewFor returns the lane's sampled view for the given line and
// sample shifts, building and memoizing it on first use. Safe for
// concurrent use.
func (u *UnpackedLane) viewFor(lineShift, sampleShift uint32) *sampledView {
	key := viewKey(lineShift, sampleShift)
	u.memoMu.Lock()
	defer u.memoMu.Unlock()
	if v, ok := u.views[key]; ok {
		return v
	}
	v := buildSampledView(u, lineShift, sampleShift)
	if u.views == nil {
		u.views = make(map[uint32]*sampledView)
	}
	u.views[key] = v
	return v
}

// buildSampledView walks the lane once, mirroring the sampled probe
// walk (memsim.GeomSim.probeAccessesSampled) access for access: the
// same span split, the same pipelined arithmetic, the same keep
// filter. The per-segment prefix sums let a composed replay charge any
// segment run's exact invariants in O(1).
func buildSampledView(u *UnpackedLane, lineShift, sampleShift uint32) *sampledView {
	threshold := memsim.SampleThreshold(sampleShift)
	segs := len(u.SegOps)
	v := &sampledView{
		segKept:   make([]uint32, segs+1),
		segProbes: make([]uint64, segs+1),
		segPipe:   make([]uint64, segs+1),
	}
	var probes, pipe uint64
	for s := 0; s < segs; s++ {
		for i := u.SegIdx[s]; i < u.SegIdx[s+1]; i++ {
			addr, size := u.Addr[i], u.Size[i]
			if size == 0 {
				continue
			}
			first := addr >> lineShift
			last := (addr + size - 1) >> lineShift
			if words, lines := uint64((size+3)>>2), uint64(last-first+1); words > lines {
				pipe += words - lines
			}
			if last < first {
				continue // wrapped span probes no lines
			}
			probes += uint64(last-first) + 1
			for line := first; ; line++ {
				if memsim.SampleHash(line) <= threshold {
					v.kept = append(v.kept, line)
				}
				if line == last {
					break
				}
			}
		}
		v.segKept[s+1] = uint32(len(v.kept))
		v.segProbes[s+1] = probes
		v.segPipe[s+1] = pipe
	}
	return v
}

// probeRun feeds a sampled kernel the view's segments [s0, s1): the
// kept lines of the run plus its exact probe/pipelined counts.
func (v *sampledView) probeRun(gs *memsim.GeomSim, s0, s1 int) {
	gs.ProbeSampledLines(
		v.kept[v.segKept[s0]:v.segKept[s1]],
		v.segProbes[s1]-v.segProbes[s0],
		v.segPipe[s1]-v.segPipe[s0],
	)
}
