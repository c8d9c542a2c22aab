package astream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/memsim"
)

// Compositional capture: instead of recording one flat stream per DDT
// combination (10^K captures for K instrumented roles), a single
// arena-mode run records one segmented sub-stream per lane — lane 0 for
// ambient application work, lanes 1..K for the container roles — plus
// the schedule of which lane owns each operation. Because every role
// allocates from a private address arena and the application's logical
// operation sequence is DDT-invariant (the refinement never changes
// functionality), a lane's sub-stream depends only on that lane's own
// DDT kind. Any combination's full access stream is therefore the
// deterministic interleave of per-lane sub-streams at the recorded
// operation boundaries: 10 all-same-kind runs yield all 10·K sub-streams
// the whole 10^K combination space composes from.
//
// A segment is the event span from one operation boundary to the next:
// the owning role's accesses and op cycles, plus any ambient work until
// the next operation starts (ambient content is DDT-invariant, so its
// attribution to the preceding segment composes exactly). Each segment
// ends with a tagSeg event carrying the owning arena's footprint deltas,
// which is how a composed replay reconstructs the global footprint peak
// bit-exactly: while one lane's segment runs, every other lane's live
// bytes are constant, so the global high-water mark is the maximum over
// segments of (total live at segment start + segment max-delta).

// SubStream is one lane's segmented access sub-stream, captured for one
// (role, kind) pair. The embedded Stream holds the event chunks (with
// tagSeg segment terminators); Peak is meaningless here — footprint
// travels in the segment deltas instead.
type SubStream struct {
	Stream
	// Role is the container role this lane captures ("" for the ambient
	// lane 0).
	Role string
	// Lane is the lane index the sub-stream was recorded on.
	Lane int
	// Segments counts the tagSeg-terminated segments.
	Segments uint64
}

// Schedule is the DDT-invariant interleave order of a run: one token per
// segment, in execution order, naming the lane that owns it. Token 0 is
// always lane 0 (the ambient prelude up to the first container
// operation).
type Schedule struct {
	// Tokens holds one lane index per segment.
	Tokens []byte
	// Roles names lanes 1..len(Roles) in order; lane 0 is ambient.
	Roles []string
}

// SizeBytes returns the encoded size of the schedule.
func (s *Schedule) SizeBytes() int { return len(s.Tokens) }

// String summarizes the schedule for logs.
func (s *Schedule) String() string {
	return fmt.Sprintf("astream.Schedule{%d segments, %d roles}", len(s.Tokens), len(s.Roles))
}

// LaneMeter reports per-lane footprint metering to a composed capture.
// vheap.Arena implements it: BeginSegment snapshots the arena's live
// bytes, SegmentStats reports the high-water and net deltas since.
type LaneMeter interface {
	BeginSegment()
	SegmentStats() (maxDelta uint64, endDelta int64)
}

// ComposedRecorder captures all lanes of an arena-mode run at once. It
// implements memsim.BoundarySink: every event routes to the sub-stream
// of the lane the most recent boundary announced, and each boundary
// seals the previous lane's segment with its arena's footprint deltas.
// Like Recorder it is single-simulation, single-goroutine state; call
// Finish exactly once.
type ComposedRecorder struct {
	roles  []string
	lanes  []*Recorder
	meters []LaneMeter
	tokens []byte
	cur    int
}

// NewComposedRecorder returns a composed recorder for the given role
// order. meters must hold one LaneMeter per lane: meters[0] for the
// ambient (default-arena) lane, meters[i+1] for roles[i]. The ambient
// prelude segment is open on return.
func NewComposedRecorder(roles []string, meters []LaneMeter) *ComposedRecorder {
	if len(meters) != len(roles)+1 {
		panic(fmt.Sprintf("astream: %d roles need %d lane meters, got %d", len(roles), len(roles)+1, len(meters)))
	}
	c := &ComposedRecorder{
		roles:  append([]string(nil), roles...),
		lanes:  make([]*Recorder, len(meters)),
		meters: meters,
	}
	for i := range c.lanes {
		c.lanes[i] = NewRecorder()
	}
	c.meters[0].BeginSegment()
	c.tokens = append(c.tokens, 0)
	return c
}

// RecordAccess routes one access to the current lane (memsim.EventSink).
func (c *ComposedRecorder) RecordAccess(write bool, addr, size uint32, ops uint64) {
	c.lanes[c.cur].RecordAccess(write, addr, size, ops)
}

// RecordOps routes op cycles to the current lane (memsim.EventSink).
func (c *ComposedRecorder) RecordOps(n uint64) { c.lanes[c.cur].RecordOps(n) }

// RecordBoundary seals the current lane's segment and opens one for lane
// (memsim.BoundarySink).
func (c *ComposedRecorder) RecordBoundary(lane int) {
	maxD, endD := c.meters[c.cur].SegmentStats()
	c.lanes[c.cur].recordSeg(maxD, endD)
	c.cur = lane
	c.meters[lane].BeginSegment()
	c.tokens = append(c.tokens, byte(lane))
}

// Finish seals the final segment and every lane, returning the run's
// schedule and per-lane sub-streams (index = lane). partial marks an
// aborted capture; partial sub-streams are never composed. The recorder
// must not be used afterwards.
func (c *ComposedRecorder) Finish(partial bool) (*Schedule, []*SubStream) {
	maxD, endD := c.meters[c.cur].SegmentStats()
	c.lanes[c.cur].recordSeg(maxD, endD)
	subs := make([]*SubStream, len(c.lanes))
	for i, r := range c.lanes {
		segs := r.segments
		role := ""
		if i > 0 {
			role = c.roles[i-1]
		}
		subs[i] = &SubStream{Stream: *r.Finish(partial), Role: role, Lane: i, Segments: segs}
	}
	sched := &Schedule{Tokens: c.tokens, Roles: c.roles}
	c.lanes, c.meters, c.tokens = nil, nil, nil
	return sched, subs
}

// errSegMismatch reports a schedule that demands more segments than a
// lane recorded — a corrupted or mismatched lane set.
var errSegMismatch = errors.New("astream: schedule and sub-stream segments disagree")

// advanceLive folds one segment's footprint deltas into the running
// (live, peak) pair: the high-water candidate is the live total at
// segment start plus the segment's in-segment max delta, and the net
// delta then moves the total. Every walk that reconstructs footprint —
// composed replay, the zero-probe ComposedPeak, the isolated suffix
// table — goes through this one function, so their peak arithmetic
// can never diverge.
func advanceLive(maxDelta uint64, endDelta int64, live, peak uint64) (uint64, uint64) {
	if c := live + maxDelta; c > peak {
		peak = c
	}
	return uint64(int64(live) + endDelta), peak
}

// decodeSeg decodes events of the current segment into b, appending
// accesses from b.nAcc and accumulating the invariant aggregates, until
// the segment's tagSeg terminator (done=true, deltas returned) or a full
// batch (done=false). Running out of encoded data before a terminator is
// an error: every sub-stream segment ends explicitly.
func (d *decoder) decodeSeg(b *batch) (done bool, maxDelta uint64, endDelta int64, err error) {
	n := b.nAcc
	for {
		if d.pos >= len(d.buf) {
			if d.ci >= len(d.chunks) {
				return false, 0, 0, errSegMismatch
			}
			d.buf = d.chunks[d.ci]
			d.ci++
			d.pos = 0
			continue
		}
		buf, pos := d.buf, d.pos
		lastAddr := d.lastAddr
		// Hot loop mirrors decoder.next: one masked 4-byte load per
		// address delta, one-byte varint fast paths inline.
		for n < batchEvents && pos < len(buf) {
			tag := buf[pos]
			pos++
			if tag&flagAccess != 0 {
				if tag&flagOps != 0 {
					var ops uint64
					if pos < len(buf) && buf[pos] < 0x80 {
						ops = uint64(buf[pos])
						pos++
					} else if ops, pos = uvarintAt(buf, pos); pos < 0 {
						return false, 0, 0, d.corrupt()
					}
					b.opCycles += ops
				}
				widthM1 := int(tag>>widthShift) & 3
				var du uint32
				if pos+4 <= len(buf) {
					du = binary.LittleEndian.Uint32(buf[pos:]) & deltaMasks[widthM1]
				} else {
					if pos+widthM1 >= len(buf) {
						return false, 0, 0, d.corrupt()
					}
					for k := 0; k <= widthM1; k++ {
						du |= uint32(buf[pos+k]) << (8 * k)
					}
				}
				pos += widthM1 + 1
				addr := lastAddr + uint32(unzigzag32(du))
				lastAddr = addr
				size := uint64(4)
				if tag&flagSized != 0 {
					if pos < len(buf) && buf[pos] < 0x80 {
						size = uint64(buf[pos])
						pos++
					} else if size, pos = uvarintAt(buf, pos); pos < 0 {
						return false, 0, 0, d.corrupt()
					}
				}
				words := (size + 3) / 4
				if tag&flagWrite != 0 {
					b.writeWords += words
				} else {
					b.readWords += words
				}
				b.addr[n] = addr
				b.size[n] = uint32(size)
				n++
			} else if tag == tagOp {
				var u uint64
				if u, pos = uvarintAt(buf, pos); pos < 0 {
					return false, 0, 0, d.corrupt()
				}
				b.opCycles += u
			} else if tag == tagSeg {
				var maxD, endU uint64
				if maxD, pos = uvarintAt(buf, pos); pos < 0 {
					return false, 0, 0, d.corrupt()
				}
				if endU, pos = uvarintAt(buf, pos); pos < 0 {
					return false, 0, 0, d.corrupt()
				}
				d.pos = pos
				d.lastAddr = lastAddr
				b.nAcc = n
				return true, maxD, unzigzag64(endU), nil
			} else if tag == tagPeak {
				// Sub-streams carry footprint in segment deltas; tolerate
				// (and skip) a stray peak event.
				var u uint64
				if u, pos = uvarintAt(buf, pos); pos < 0 {
					return false, 0, 0, d.corrupt()
				}
				d.lastPeak += u
			} else {
				return false, 0, 0, fmt.Errorf("astream: unknown event tag %d in chunk %d", tag, d.ci-1)
			}
		}
		d.pos = pos
		d.lastAddr = lastAddr
		if n == batchEvents {
			b.nAcc = n
			return false, 0, 0, nil
		}
	}
}

// UnpackedLane is a lane sub-stream decoded once into the struct-of-
// arrays form the probe kernel consumes directly: flat address/size
// arrays indexed per segment, with the platform-invariant per-segment
// aggregates (op cycles, word counts, footprint deltas) precomputed.
// Composition pays varint decoding 10·K times — once per lane — instead
// of 10^K times, so evaluating one more combination is a probe-only
// pass over shared arrays. An UnpackedLane is immutable and safe for
// concurrent replays; it is derived data, rebuilt from its SubStream on
// demand and never persisted.
type UnpackedLane struct {
	Role string
	Lane int

	Addr []uint32
	Size []uint32

	// SegIdx[s] .. SegIdx[s+1] bound segment s's accesses in Addr/Size.
	SegIdx []uint32
	// Per-segment platform-invariant aggregates.
	SegOps    []uint64
	SegReadW  []uint32
	SegWriteW []uint32
	SegMax    []uint64
	SegEnd    []int64

	// Derived-table memos, built lazily on first use and shared by
	// every combination the lane participates in. views (viewFor): the
	// lane's hash-kept line subsequence plus exact per-segment probe
	// aggregates, one per (line shift, sample shift) pair. isos
	// (isoSuffixFor): the isolated suffix tables of the lane bound and
	// the guarded replay's completion bound, one per L1 geometry, whose
	// first-touch columns colds holds once per line shift.
	memoMu sync.Mutex
	views  map[uint32]*sampledView
	isos   map[memsim.CacheGeometry]*isoSuffix
	colds  map[uint32][]uint64
}

// Segments returns the number of decoded segments.
func (u *UnpackedLane) Segments() int { return len(u.SegOps) }

// SizeBytes returns the decoded in-memory footprint of the lane.
func (u *UnpackedLane) SizeBytes() int {
	return 8*len(u.Addr) + 4*len(u.SegIdx) + 32*len(u.SegOps)
}

// Unpack decodes the sub-stream into its struct-of-arrays form.
func (s *SubStream) Unpack() (*UnpackedLane, error) {
	if s.Partial {
		return nil, ErrPartial
	}
	u := &UnpackedLane{
		Role:   s.Role,
		Lane:   s.Lane,
		Addr:   make([]uint32, 0, s.Accesses),
		Size:   make([]uint32, 0, s.Accesses),
		SegIdx: make([]uint32, 1, s.Segments+1),
	}
	d := decoder{chunks: s.Chunks}
	var b batch
	for seg := uint64(0); seg < s.Segments; seg++ {
		var ops, readW, writeW uint64
		for {
			b.nAcc, b.readWords, b.writeWords, b.opCycles = 0, 0, 0, 0
			done, maxD, endD, err := d.decodeSeg(&b)
			if err != nil {
				return nil, err
			}
			u.Addr = append(u.Addr, b.addr[:b.nAcc]...)
			u.Size = append(u.Size, b.size[:b.nAcc]...)
			ops += b.opCycles
			readW += b.readWords
			writeW += b.writeWords
			if done {
				u.SegIdx = append(u.SegIdx, uint32(len(u.Addr)))
				u.SegOps = append(u.SegOps, ops)
				u.SegReadW = append(u.SegReadW, uint32(readW))
				u.SegWriteW = append(u.SegWriteW, uint32(writeW))
				u.SegMax = append(u.SegMax, maxD)
				u.SegEnd = append(u.SegEnd, endD)
				break
			}
		}
	}
	return u, nil
}

// ReplayComposedUnpacked is ReplayComposed over pre-decoded lanes, for
// one or many platform configurations in a single merged pass: no
// varint decoding remains on this path — each scheduled segment probes
// its slice of the lane's address array and adds precomputed aggregates.
// Configurations sharing an L1 line size collapse into one all-geometry
// probe pass (memsim.GeomSim), as in ReplayMulti. guard (single-
// configuration only) is polled about once per batchEvents probed
// accesses with the completion bound: exact final word and op counts,
// the probe outcomes so far, and each lane's unprobed suffix priced by
// its isolated outcomes (isolated L1 misses as L2 hits, first line
// touches as DRAM fills, every other probe as an L1 hit; see
// memsim/bound.go). The per-lane tables are built by one isolated pass
// per lane and L1 geometry on first use and memoized on the lane. On a
// platform outside memsim.BoundEligible the guard sees the bare
// partial cost instead.
func ReplayComposedUnpacked(sched *Schedule, lanes []*UnpackedLane, cfgs []memsim.Config, guard GuardFunc) ([]Cost, error) {
	costs, _, err := replayComposedUnpacked(sched, lanes, cfgs, guard, false, 0)
	return costs, err
}

// ReplayComposedUnpackedProfiled is ReplayComposedUnpacked plus the
// reuse profiles of the pass, one per geometry family — the composed
// counterpart of ReplayMultiProfiled.
func ReplayComposedUnpackedProfiled(sched *Schedule, lanes []*UnpackedLane, cfgs []memsim.Config) ([]Cost, []*memsim.ReuseProfile, error) {
	return replayComposedUnpacked(sched, lanes, cfgs, nil, true, 0)
}

// ReplayComposedUnpackedSampled is ReplayComposedUnpacked at spatial
// sample rate 2^-sampleShift — the screening evaluator: the schedule
// walk, segment aggregation and footprint reconstruction stay exact,
// while only the hash-kept line subset descends the recency stacks, so
// the per-combination probe cost drops by ~2^sampleShift. Costs come
// back as scaled estimates; combine with the sampled profile's RelCI
// for the interval. Guards are not supported under sampling (a sampled
// partial cost is not a sound lower bound to abort on); shift 0 is
// exactly ReplayComposedUnpacked.
func ReplayComposedUnpackedSampled(sched *Schedule, lanes []*UnpackedLane, cfgs []memsim.Config, sampleShift uint32) ([]Cost, error) {
	costs, _, err := replayComposedUnpacked(sched, lanes, cfgs, nil, false, sampleShift)
	return costs, err
}

// ReplayComposedUnpackedProfiledSampled is the profiled variant of
// ReplayComposedUnpackedSampled: the sampled costs plus one sampled
// reuse profile per geometry family, carrying the sample descriptor and
// per-bucket variance for RelCI.
func ReplayComposedUnpackedProfiledSampled(sched *Schedule, lanes []*UnpackedLane, cfgs []memsim.Config, sampleShift uint32) ([]Cost, []*memsim.ReuseProfile, error) {
	return replayComposedUnpacked(sched, lanes, cfgs, nil, true, sampleShift)
}

func replayComposedUnpacked(sched *Schedule, lanes []*UnpackedLane, cfgs []memsim.Config, guard GuardFunc, profiled bool, sampleShift uint32) ([]Cost, []*memsim.ReuseProfile, error) {
	if len(lanes) != len(sched.Roles)+1 {
		return nil, nil, fmt.Errorf("astream: schedule names %d roles but %d lanes supplied", len(sched.Roles), len(lanes))
	}
	for i, u := range lanes {
		if u == nil {
			return nil, nil, fmt.Errorf("astream: missing unpacked lane %d", i)
		}
	}
	if guard != nil && len(cfgs) != 1 {
		return nil, nil, fmt.Errorf("astream: guarded composed replay supports exactly one configuration")
	}
	if guard != nil && sampleShift != 0 {
		return nil, nil, fmt.Errorf("astream: guarded composed replay does not support sampling")
	}
	sc := getScratch()
	defer putScratch(sc)
	plan := sc.planFor(cfgs, profiled, sampleShift)
	cursor := sc.cursorsFor(len(lanes))

	// A fully sampled plan (no exact LineSim leftovers) replays through
	// the lanes' memoized sampled views: kept lines only, exact
	// invariants from prefix sums. Mixed plans keep the full access walk
	// — the LineSims need every access anyway.
	var views [][]*sampledView
	if sampleShift != 0 && len(plan.sims) == 0 {
		views = make([][]*sampledView, len(lanes))
		for li, u := range lanes {
			views[li] = make([]*sampledView, len(plan.geoms))
			for k, gs := range plan.geoms {
				views[li][k] = u.viewFor(uint32(bits.TrailingZeros32(gs.LineBytes())), sampleShift)
			}
		}
	}

	var (
		inv        memsim.Counts
		totalLive  uint64
		peak       uint64
		sinceGuard int
		toks       = sched.Tokens
		// Completion bound ingredients (guarded replays on a
		// memsim.BoundEligible platform): a composed replay consumes
		// every segment of every lane exactly once, so the final
		// invariant totals — words, op cycles, line probes, pipelined
		// words — are the lanes' sums, known before the walk starts, and
		// each lane's isolated suffix table prices its unprobed accesses.
		isos      []*isoSuffix
		totInv    memsim.Counts
		totProbes uint64
		totPipe   uint64
	)
	if guard != nil && memsim.BoundEligible(cfgs[0]) {
		isos = make([]*isoSuffix, len(lanes))
		for li, u := range lanes {
			t := u.isoSuffixFor(cfgs[0])
			isos[li] = t
			totInv.ReadWords += t.inv.ReadWords
			totInv.WriteWords += t.inv.WriteWords
			totInv.OpCycles += t.inv.OpCycles
			totProbes += t.probes
			totPipe += t.pipelined
		}
	}
	for i := 0; i < len(toks); {
		t := int(toks[i])
		if t >= len(lanes) {
			return nil, nil, fmt.Errorf("astream: schedule token %d outside %d lanes", t, len(lanes))
		}
		// Consecutive segments of one lane (a radix descent, a queue
		// drain) are contiguous in the lane's arrays: fold the run into
		// a single probe call.
		run := 1
		for i+run < len(toks) && int(toks[i+run]) == t {
			run++
		}
		i += run
		u := lanes[t]
		s0 := cursor[t]
		sEnd := s0 + run
		if sEnd > len(u.SegOps) {
			return nil, nil, errSegMismatch
		}
		cursor[t] = sEnd
		lo, hi := u.SegIdx[s0], u.SegIdx[sEnd]
		if hi > lo {
			if views != nil {
				for k, gs := range plan.geoms {
					views[t][k].probeRun(gs, s0, sEnd)
				}
			} else {
				plan.probe(u.Addr[lo:hi], u.Size[lo:hi])
			}
		}
		for s := s0; s < sEnd; s++ {
			inv.ReadWords += uint64(u.SegReadW[s])
			inv.WriteWords += uint64(u.SegWriteW[s])
			inv.OpCycles += u.SegOps[s]
			totalLive, peak = advanceLive(u.SegMax[s], u.SegEnd[s], totalLive, peak)
		}
		if guard != nil {
			if sinceGuard += int(hi - lo); sinceGuard >= batchEvents {
				sinceGuard = 0
				// A guarded replay has exactly one configuration, which a
				// non-profiled plan always serves with a dedicated LineSim.
				ls := plan.sims[0]
				var snap Cost
				if isos == nil {
					// Latencies out of order: an unprobed access has no
					// cheapest outcome to price it at, so the snapshot is
					// the bare partial cost, as in flat Replay.
					snap = costOf(cfgs[0], ls, inv, peak)
				} else {
					// The completion bound: exact final invariants, the
					// probe outcomes so far, and every lane's suffix from
					// its next checkpoint priced by its isolated outcomes —
					// misses at L2 hits, first touches at DRAM fills. The
					// remaining probes (isolated hits, and the gap between
					// a cursor and its checkpoint) are priced as L1 hits.
					var misses, cold uint64
					for li, t := range isos {
						m, c := t.suffixAt(cursor[li])
						misses += m
						cold += c
					}
					cnt := totInv
					cnt.L1Hits = ls.L1Hits + (totProbes - ls.Probes() - misses)
					cnt.L2Hits = ls.L2Hits + misses - cold
					cnt.DRAMFills = ls.DRAMFills + cold
					snap = Cost{Counts: cnt, Cycles: cfgs[0].CyclesFor(cnt, totPipe), Peak: peak}
				}
				if guard(snap) {
					snap.Aborted = true
					return []Cost{snap}, nil, nil
				}
			}
		}
	}
	out := plan.costs(inv, peak)
	if !profiled {
		return out, nil, nil
	}
	return out, plan.profiles(inv, peak), nil
}

// ComposedPeak reconstructs the EXACT footprint peak of one DDT
// combination from its schedule and pre-decoded lanes alone — the same
// segment-delta walk a composed replay performs, with no probe kernel
// attached. Footprint is platform-invariant and, unlike the cache
// behaviour, composes without any interference term (while one lane's
// segment runs every other lane's live bytes are constant), so the
// bound-guided search can use the exact composed footprint as the
// fourth axis of an otherwise lower-bound vector at a tiny fraction of
// a replay's cost: O(segments), zero probes, zero varint decoding.
func ComposedPeak(sched *Schedule, lanes []*UnpackedLane) (uint64, error) {
	if len(lanes) != len(sched.Roles)+1 {
		return 0, fmt.Errorf("astream: schedule names %d roles but %d lanes supplied", len(sched.Roles), len(lanes))
	}
	for i, u := range lanes {
		if u == nil {
			return 0, fmt.Errorf("astream: missing unpacked lane %d", i)
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	cursor := sc.cursorsFor(len(lanes))
	var totalLive, peak uint64
	for _, tok := range sched.Tokens {
		t := int(tok)
		if t >= len(lanes) {
			return 0, fmt.Errorf("astream: schedule token %d outside %d lanes", t, len(lanes))
		}
		u := lanes[t]
		s := cursor[t]
		if s >= len(u.SegOps) {
			return 0, errSegMismatch
		}
		cursor[t] = s + 1
		totalLive, peak = advanceLive(u.SegMax[s], u.SegEnd[s], totalLive, peak)
	}
	return peak, nil
}

// ReplayComposed evaluates one DDT combination under cfg by merging the
// K+1 lane decoders into a single probe stream in schedule order —
// without materializing the combination's flat encoding — and driving
// the same LineSim kernel a flat replay uses. lanes[i] must be the
// sub-stream for lane i: lanes[0] ambient, lanes[i] the sub-stream
// captured for (sched.Roles[i-1], chosen kind). The result is exactly
// what an arena-mode live simulation of that combination would produce.
// guard, when non-nil, is polled once per batch as in Replay.
func ReplayComposed(sched *Schedule, lanes []*SubStream, cfg memsim.Config, guard GuardFunc) (Cost, error) {
	costs, err := replayComposed(sched, lanes, []memsim.Config{cfg}, guard)
	if err != nil {
		return Cost{}, err
	}
	return costs[0], nil
}

// ReplayComposedMulti evaluates one DDT combination under K platform
// configurations in a single merged pass: the lanes are decoded and
// interleaved once, and same-line-size configuration families collapse
// into one all-geometry probe of the shared batches — the composed
// counterpart of ReplayMulti.
func ReplayComposedMulti(sched *Schedule, lanes []*SubStream, cfgs []memsim.Config) ([]Cost, error) {
	return replayComposed(sched, lanes, cfgs, nil)
}

func replayComposed(sched *Schedule, lanes []*SubStream, cfgs []memsim.Config, guard GuardFunc) ([]Cost, error) {
	if len(lanes) != len(sched.Roles)+1 {
		return nil, fmt.Errorf("astream: schedule names %d roles but %d lanes supplied", len(sched.Roles), len(lanes))
	}
	for i, ls := range lanes {
		if ls == nil {
			return nil, fmt.Errorf("astream: missing sub-stream for lane %d", i)
		}
		if ls.Partial {
			return nil, ErrPartial
		}
	}
	if guard != nil && len(cfgs) != 1 {
		return nil, fmt.Errorf("astream: guarded composed replay supports exactly one configuration")
	}

	sc := getScratch()
	defer putScratch(sc)
	plan := sc.planFor(cfgs, false, 0)
	ds := sc.decodersFor(len(lanes))
	for i, ls := range lanes {
		ds[i] = decoder{chunks: ls.Chunks}
	}

	var (
		b         = &sc.b
		inv       memsim.Counts
		totalLive uint64
		peak      uint64
	)
	b.nAcc, b.readWords, b.writeWords, b.opCycles = 0, 0, 0, 0
	flush := func() {
		inv.ReadWords += b.readWords
		inv.WriteWords += b.writeWords
		inv.OpCycles += b.opCycles
		plan.probe(b.addr[:b.nAcc], b.size[:b.nAcc])
		b.nAcc, b.readWords, b.writeWords, b.opCycles = 0, 0, 0, 0
	}

	for _, tok := range sched.Tokens {
		t := int(tok)
		if t >= len(ds) {
			return nil, fmt.Errorf("astream: schedule token %d outside %d lanes", t, len(ds))
		}
		for {
			done, maxD, endD, err := ds[t].decodeSeg(b)
			if err != nil {
				return nil, err
			}
			if done {
				// Other lanes' live bytes are constant during this
				// segment, so the global footprint candidate is the total
				// at segment start plus this lane's in-segment high-water.
				totalLive, peak = advanceLive(maxD, endD, totalLive, peak)
				break
			}
			flush()
			if guard != nil {
				// A guarded replay has exactly one configuration, which a
				// non-profiled plan always serves with a dedicated LineSim.
				if snap := costOf(cfgs[0], plan.sims[0], inv, peak); guard(snap) {
					snap.Aborted = true
					return []Cost{snap}, nil
				}
			}
		}
	}
	flush()
	return plan.costs(inv, peak), nil
}
