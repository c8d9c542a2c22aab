package memsim

import "math/bits"

// LineSim is the bare two-level hit/miss simulator: the probe kernel
// both the live Hierarchy and the access-stream replay path drive. It
// holds only the state that is platform-dependent: which level served
// each line probe, plus (for replay batches) the pipelined-word count
// implied by the configuration's line size. Word counting and abort
// polling stay in Hierarchy. Everything else a cost vector needs (word
// counts, ALU cycles, peak footprint) is platform-invariant, and
// CyclesFor turns the counts into cycles for live and replayed runs
// alike.
type LineSim struct {
	L1Hits    uint64
	L2Hits    uint64
	DRAMFills uint64

	l1, l2    *cache
	lineBytes uint32
	shift     uint32
	linePow2  bool
	// [lastFirst, lastLine] is the line span of the most recent probed
	// access, tracked only while it cannot wrap the L1 set space: every
	// line in it is resident in L1 and MRU in its own set, so a
	// subsequent access entirely inside the span is all L1 hits with no
	// LRU state change — the skip window of ProbeAccesses.
	lastFirst uint32
	lastLine  uint32
	pipelined uint64
}

// noLine is the lastLine sentinel; unreachable as a real line index for
// the line sizes (>= 2 bytes) the simulator models.
const noLine = ^uint32(0)

// NewLineSim builds the hit/miss simulator for cfg's cache geometries.
func NewLineSim(cfg Config) *LineSim {
	lb := effectiveLine(cfg)
	return &LineSim{
		l1:        newCache(cfg.L1),
		l2:        newCache(cfg.L2),
		lineBytes: lb,
		shift:     uint32(bits.TrailingZeros32(lb)),
		linePow2:  lb&(lb-1) == 0,
		lastFirst: noLine,
		lastLine:  noLine,
	}
}

// Reset returns the simulator to its just-constructed state for cfg —
// cold caches, zero counters — reusing the tag arrays, and reports
// whether it could: a false return means cfg implies different cache
// geometry and the caller must build a fresh LineSim. Reset is what lets
// the replay hot path recycle simulators from a pool instead of
// allocating tag arrays per replay.
func (s *LineSim) Reset(cfg Config) bool {
	if effectiveLine(cfg) != s.lineBytes || !s.l1.sameGeometry(cfg.L1) || !s.l2.sameGeometry(cfg.L2) {
		return false
	}
	clearTags(s.l1.tags)
	clearTags(s.l2.tags)
	s.L1Hits, s.L2Hits, s.DRAMFills = 0, 0, 0
	s.lastFirst, s.lastLine = noLine, noLine
	s.pipelined = 0
	return true
}

// LineSpan returns the first and last cache-line index an access to
// [addr, addr+size) touches under this configuration's line size.
func (s *LineSim) LineSpan(addr, size uint32) (uint32, uint32) {
	if s.linePow2 {
		return addr >> s.shift, (addr + size - 1) >> s.shift
	}
	return addr / s.lineBytes, (addr + size - 1) / s.lineBytes
}

// ProbeLine walks the hierarchy for one cache line: the canonical
// write-allocate, inclusive-fill policy every faster walk reproduces.
func (s *LineSim) ProbeLine(line uint32) {
	switch {
	case s.l1.touch(line):
		s.L1Hits++
	case s.l2.touch(line):
		s.L2Hits++
	default:
		s.DRAMFills++
	}
}

// ProbeAccesses simulates a batch of accesses (addrs[i] with sizes[i])
// in order: the hot loop of the replayer, kept inside memsim — next to
// the canonical cache model it specializes — so the probe walk reads the
// tag arrays directly with no per-line calls. Two exactness-preserving
// shortcuts carry most probes: an access entirely inside the most
// recently probed line is a guaranteed L1 hit with no LRU state change
// (the line is resident and already MRU), and an access whose line is at
// the MRU position of its set needs no reordering. The specialized walk
// requires power-of-two geometry (line size and set counts, the
// practical case); anything else takes the generic probeSpan path. The
// replay-equivalence property tests pin both paths to the live
// hierarchy bit-for-bit, and the reference-model tests pin the live
// hierarchy to a textbook LRU model. Pipelined-word counts accumulate
// per the configuration's line size (Pipelined).
func (s *LineSim) ProbeAccesses(addrs, sizes []uint32) {
	if len(addrs) != len(sizes) {
		panic("memsim: ProbeAccesses length mismatch")
	}
	l1, l2 := s.l1, s.l2
	if !s.linePow2 || !l1.pow2 || !l2.pow2 {
		s.probeAccessesGeneric(addrs, sizes)
		return
	}
	if l1.assoc == 2 {
		s.probeAccessesL1x2(addrs, sizes)
		return
	}
	var (
		shift               = s.shift
		lastFirst, lastLine = s.lastFirst, s.lastLine
		l1Tags              = l1.tags
		l1Mask, l1Assoc     = l1.mask, l1.assoc
		l1Sets              = l1.nsets
		l1Hits              uint64
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
			l1Hits += uint64(last - first + 1) // inside the skip window
			continue
		}
		if last-first < l1Sets {
			lastFirst, lastLine = first, last
		} else {
			lastFirst, lastLine = noLine, noLine
		}
		for line := first; ; line++ {
			base := (line & l1Mask) * l1Assoc
			t1 := l1Tags[base : base+l1Assoc]
			if t1[0] == line {
				l1Hits++ // MRU way: no reorder needed
			} else {
				hit := false
				for w := uint32(1); w < l1Assoc; w++ {
					if t1[w] == line {
						copy(t1[1:w+1], t1[:w])
						t1[0] = line
						l1Hits++
						hit = true
						break
					}
				}
				if !hit {
					s.probeL2Fill(line)
					copy(t1[1:], t1[:l1Assoc-1])
					t1[0] = line
				}
			}
			if line == last {
				break
			}
		}
	}
	s.lastFirst, s.lastLine = lastFirst, lastLine
	s.L1Hits += l1Hits
	s.pipelined += pipelined
}

// probeAccessesL1x2 is ProbeAccesses for the dominant 2-way L1 geometry:
// the set is two directly indexed tags, no slices, no way loop.
func (s *LineSim) probeAccessesL1x2(addrs, sizes []uint32) {
	var (
		shift               = s.shift
		lastFirst, lastLine = s.lastFirst, s.lastLine
		l1Tags              = s.l1.tags
		l1Mask              = s.l1.mask
		l1Sets              = s.l1.nsets
		l1Hits              uint64
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
			l1Hits += uint64(last - first + 1) // inside the skip window
			continue
		}
		if last-first < l1Sets {
			lastFirst, lastLine = first, last
		} else {
			lastFirst, lastLine = noLine, noLine
		}
		for line := first; ; line++ {
			base := (line & l1Mask) << 1
			if l1Tags[base] == line {
				l1Hits++ // MRU way: no reorder needed
			} else if l1Tags[base+1] == line {
				l1Tags[base+1] = l1Tags[base]
				l1Tags[base] = line
				l1Hits++
			} else {
				s.probeL2Fill(line)
				l1Tags[base+1] = l1Tags[base]
				l1Tags[base] = line
			}
			if line == last {
				break
			}
		}
	}
	s.lastFirst, s.lastLine = lastFirst, lastLine
	s.L1Hits += l1Hits
	s.pipelined += pipelined
}

// probeL2Fill resolves an L1 miss against the second level (probe, LRU
// update, inclusive fill), with exactly the policy of ProbeLine below
// the first level. The caller performs the L1 fill.
func (s *LineSim) probeL2Fill(line uint32) {
	if s.l2.touch(line) {
		s.L2Hits++
	} else {
		s.DRAMFills++
	}
}

// probeAccessesGeneric is the ProbeAccesses fallback for non-power-of-
// two geometries, one probeSpan per access.
func (s *LineSim) probeAccessesGeneric(addrs, sizes []uint32) {
	for i, addr := range addrs {
		size := sizes[i]
		if size == 0 {
			continue
		}
		first, last := s.LineSpan(addr, size)
		if words, lines := uint64((size+3)/4), uint64(last-first+1); words > lines {
			s.pipelined += words - lines
		}
		s.probeSpan(first, last)
	}
}

// probeSpan simulates one access touching lines first..last: the
// single-access kernel of the live Hierarchy, with the skip window of
// ProbeAccesses and a directly indexed walk for 2-way L1s. It does not
// count pipelined words; callers do. A span with last < first (the
// access wraps the 32-bit space) probes no lines.
func (s *LineSim) probeSpan(first, last uint32) {
	if last < first {
		return
	}
	if first >= s.lastFirst && last <= s.lastLine {
		s.L1Hits += uint64(last - first + 1) // inside the skip window
		return
	}
	l1 := s.l1
	if last-first < l1.nsets {
		s.lastFirst, s.lastLine = first, last
	} else {
		s.lastFirst, s.lastLine = noLine, noLine
	}
	if l1.assoc != 2 {
		for line := first; ; line++ {
			s.ProbeLine(line)
			if line == last {
				return
			}
		}
	}
	tags := l1.tags
	for line := first; ; line++ {
		base := l1.setIndex(line) << 1
		if tags[base] == line {
			s.L1Hits++ // MRU way: no reorder needed
		} else if tags[base+1] == line {
			tags[base+1] = tags[base]
			tags[base] = line
			s.L1Hits++
		} else {
			s.probeL2Fill(line)
			tags[base+1] = tags[base]
			tags[base] = line
		}
		if line == last {
			return
		}
	}
}

// Probes returns the total line probes simulated so far.
func (s *LineSim) Probes() uint64 { return s.L1Hits + s.L2Hits + s.DRAMFills }

// Pipelined returns the accumulated pipelined extra words implied by the
// configuration's line size over all ProbeAccesses batches.
func (s *LineSim) Pipelined() uint64 { return s.pipelined }

// CyclesFor returns the execution cycles implied by the event counts plus
// the pipelined extra words under this configuration: the one cycle
// formula of both the live Hierarchy and the replayer.
func (cfg Config) CyclesFor(c Counts, pipelinedWords uint64) uint64 {
	return c.L1Hits*cfg.L1HitCycles +
		c.L2Hits*cfg.L2HitCycles +
		c.DRAMFills*cfg.DRAMCycles +
		c.OpCycles +
		pipelinedWords*cfg.PipelinedWord
}
