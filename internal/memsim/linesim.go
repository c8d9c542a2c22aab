package memsim

import "math/bits"

// LineSim is the bare two-level hit/miss simulator: the probe kernel
// both the live Hierarchy and the access-stream replay path drive. It
// holds only the state that is platform-dependent: which level served
// each line probe, plus the pipelined-word count implied by the
// configuration's line size. Word counting and abort polling stay in
// Hierarchy. Everything else a cost vector needs (word counts, ALU
// cycles, peak footprint) is platform-invariant, and CyclesFor turns
// the counts into cycles for live and replayed runs alike.
type LineSim struct {
	L1Hits    uint64
	L2Hits    uint64
	DRAMFills uint64

	l1, l2    *cache
	lineBytes uint32
	shift     uint32
	linePow2  bool
	pipelined uint64
	// queue holds the 2-way kernel's line probes between its passes:
	// the L1 pass leaves the misses at its front for the L2 pass.
	queue [queueLen]uint32
}

// queueLen is how many line probes the 2-way kernel queues before it
// probes them: a power of two, since the expansion loop masks with it.
// A 1024-line queue probed no faster, and the queue's bytes are in every
// LineSim, of which composing campaigns build hundreds.
const queueLen = 256

// NewLineSim builds the hit/miss simulator for cfg's cache geometries.
func NewLineSim(cfg Config) *LineSim {
	lb := effectiveLine(cfg)
	return &LineSim{
		l1:        newCache(cfg.L1),
		l2:        newCache(cfg.L2),
		lineBytes: lb,
		shift:     uint32(bits.TrailingZeros32(lb)),
		linePow2:  lb&(lb-1) == 0,
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
// in order: the one probe kernel of live runs (a Hierarchy's batches)
// and replays alike, kept inside memsim — next to the canonical cache
// model it specializes — so the probe walk reads the tag arrays
// directly with no per-line calls. A zero-size access probes nothing,
// and so does one whose last byte wraps the 32-bit space. The
// specialized walks require power-of-two geometry (line size and set
// counts, the practical case); anything else walks ProbeLine. The
// replay-equivalence property tests pin the kernel to the live
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
		shift           = s.shift
		l1Tags          = l1.tags
		l1Mask, l1Assoc = l1.mask, l1.assoc
		l1Hits          uint64
		pipelined       uint64
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
					if s.l2.touch(line) {
						s.L2Hits++
					} else {
						s.DRAMFills++
					}
					copy(t1[1:], t1[:l1Assoc-1])
					t1[0] = line
				}
			}
			if line == last {
				break
			}
		}
	}
	s.L1Hits += l1Hits
	s.pipelined += pipelined
}

// probeAccessesL1x2 is ProbeAccesses for the dominant 2-way L1
// geometry. It expands the accesses into their line probes, a queue at
// a time, and probes each queue through probeLinesL1x2. An access of
// one or two lines — nearly all of them — is queued without a branch
// on its span.
func (s *LineSim) probeAccessesL1x2(addrs, sizes []uint32) {
	var (
		shift     = s.shift & 31
		queue     = &s.queue
		n         int
		probes    uint64
		pipelined uint64
	)
	for i, addr := range addrs {
		size := sizes[i]
		first := addr >> shift
		last := (addr + size - 1) >> shift
		lines := last - first + 1
		pipelined += uint64(max((size+3)>>2, lines) - lines) // 0 for size 0
		if size == 0 || last < first {
			continue // a no-op, or addr+size wraps the 32-bit space: the hierarchy probes no lines
		}
		probes += uint64(lines)
		if n >= queueLen-1 {
			s.probeLinesL1x2(queue[:n])
			n = 0
		}
		queue[n] = first
		queue[(n+1)&(queueLen-1)] = last // n+1 < queueLen; the mask drops the bounds check
		if lines <= 2 {
			n += int(lines)
		} else {
			n = s.queueLines(n+1, first+1, last)
		}
	}
	s.probeLinesL1x2(queue[:n])
	s.L1Hits += probes
	s.pipelined += pipelined
}

// queueLines queues lines first..last from queue position n on,
// probing the queue whenever it fills, and returns the next position.
func (s *LineSim) queueLines(n int, first, last uint32) int {
	for line := first; ; line++ {
		if n == queueLen {
			s.probeLinesL1x2(s.queue[:])
			n = 0
		}
		s.queue[n] = line
		n++
		if line == last {
			return n
		}
	}
}

// probeLinesL1x2 probes lines in order through the 2-way L1 and the L2
// behind it, in two passes, moving each L1 miss from L1Hits (where the
// caller counts every probe) to L2Hits or DRAMFills. L1 state never
// depends on L2 — every miss fills L1 whichever level serves it — so
// the first pass (missesL1x2) walks every line through L1 alone and
// queues the misses, and the second walks them through L2 in order.
func (s *LineSim) probeLinesL1x2(lines []uint32) {
	k := missesL1x2(s.l1.tags, s.l1.mask, lines)
	l2 := s.l2
	var hits uint64
	for _, line := range lines[:k] {
		if l2.touch(line) {
			hits++
		}
	}
	s.L1Hits -= uint64(k)
	s.L2Hits += hits
	s.DRAMFills += uint64(k) - hits
}

// missesL1x2 is the first pass of probeLinesL1x2: it probes lines
// through the 2-way L1 whose tags and set mask it is given, queues the
// misses at the front of lines, in order, and returns their number.
//
// The pass does not branch on the outcome: MRU hits, way-1 hits and
// misses are about equally frequent on the paper's applications, so
// branches on them mispredict. A set is two tags, MRU first, and a
// probe leaves line MRU with the other way holding the old MRU tag,
// unless line already was MRU. The product of the two tags' differences
// from line is zero exactly on a hit; the way-1 tag is picked by a
// conditional move, and every line is stored to the queue, whose length
// grows by the miss bit.
func missesL1x2(tags []uint32, mask uint32, lines []uint32) int {
	k := 0
	for _, line := range lines {
		base := (line & mask) << 1
		t0, t1 := tags[base], tags[base+1]
		p := uint64(t0^line) * uint64(t1^line)
		if t0 == line {
			t0 = t1
		}
		tags[base], tags[base+1] = line, t0
		lines[k] = line // k never passes the read index
		k += int((p | -p) >> 63)
	}
	return k
}

// probeAccessesGeneric is the ProbeAccesses walk for non-power-of-two
// geometries: ProbeLine per line of each access.
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
		if last < first {
			continue // addr+size wraps the 32-bit space: the hierarchy probes no lines
		}
		for line := first; ; line++ {
			s.ProbeLine(line)
			if line == last {
				break
			}
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
