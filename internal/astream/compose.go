package astream

import (
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
// lane recorded, or a sub-stream whose segment terminators disagree with
// its recorded count — a corrupted or mismatched lane set.
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
	d := decoder{chunks: s.Chunks, segs: true}
	var (
		b                  batch
		ops, readW, writeW uint64
	)
	for more := true; more; {
		var err error
		if more, err = d.next(&b); err != nil {
			return nil, err
		}
		u.Addr = append(u.Addr, b.addr[:b.nAcc]...)
		u.Size = append(u.Size, b.size[:b.nAcc]...)
		ops += b.opCycles
		readW += b.readWords
		writeW += b.writeWords
		if d.atSeg {
			u.SegIdx = append(u.SegIdx, uint32(len(u.Addr)))
			u.SegOps = append(u.SegOps, ops)
			u.SegReadW = append(u.SegReadW, uint32(readW))
			u.SegWriteW = append(u.SegWriteW, uint32(writeW))
			u.SegMax = append(u.SegMax, d.segMax)
			u.SegEnd = append(u.SegEnd, d.segEnd)
			ops, readW, writeW = 0, 0, 0
		}
	}
	// Every recorded segment ends with its terminator, and the count
	// matches the recorder's.
	if uint64(len(u.SegOps)) != s.Segments || int(u.SegIdx[len(u.SegIdx)-1]) != len(u.Addr) || ops+readW+writeW != 0 {
		return nil, errSegMismatch
	}
	return u, nil
}

// Composition is one DDT combination's access sequence given by its
// parts: the run's schedule and the pre-decoded lanes it interleaves.
// Lanes[0] is the ambient lane and Lanes[i] the lane captured for
// (Sched.Roles[i-1], chosen kind). Replaying it yields exactly what an
// arena-mode live simulation of the combination would produce, with no
// varint decoding: each scheduled run probes its slice of the lane's
// address array and adds precomputed aggregates.
type Composition struct {
	Sched *Schedule
	Lanes []*UnpackedLane
}

// check reports a composition whose lanes do not match its schedule.
// Token ranges and segment counts are checked during the walk.
func (c Composition) check() error {
	if c.Sched == nil {
		return errors.New("astream: composition has no schedule")
	}
	if len(c.Lanes) != len(c.Sched.Roles)+1 {
		return fmt.Errorf("astream: schedule names %d roles but %d lanes supplied", len(c.Sched.Roles), len(c.Lanes))
	}
	for i, u := range c.Lanes {
		if u == nil {
			return fmt.Errorf("astream: missing unpacked lane %d", i)
		}
	}
	return nil
}

// compWalker walks a composition's schedule. Consecutive segments of
// one lane (a radix descent, a queue drain) are contiguous in the
// lane's arrays, so each such run is one probe run.
type compWalker struct {
	toks   []byte
	lanes  []*UnpackedLane
	cursor []int // next segment per lane
	i      int   // next schedule token
	// live and peak are the running global footprint: while one lane's
	// segment runs every other lane's live bytes are constant.
	live, peak uint64
	// isos are the lanes' isolated suffix tables when the walk prices
	// the completion bound.
	isos []*isoSuffix
}

func (w *compWalker) next(r *run) (bool, error) {
	if w.i >= len(w.toks) {
		return false, nil
	}
	t := int(w.toks[w.i])
	if t >= len(w.lanes) {
		return false, fmt.Errorf("astream: schedule token %d outside %d lanes", t, len(w.lanes))
	}
	n := 1
	for w.i+n < len(w.toks) && int(w.toks[w.i+n]) == t {
		n++
	}
	w.i += n
	u := w.lanes[t]
	s0, s1 := w.cursor[t], w.cursor[t]+n
	if s1 > len(u.SegOps) {
		return false, errSegMismatch
	}
	w.cursor[t] = s1
	lo, hi := u.SegIdx[s0], u.SegIdx[s1]
	var readW, writeW, ops uint64
	live, peak := w.live, w.peak
	for s := s0; s < s1; s++ {
		readW += uint64(u.SegReadW[s])
		writeW += uint64(u.SegWriteW[s])
		ops += u.SegOps[s]
		live, peak = advanceLive(u.SegMax[s], u.SegEnd[s], live, peak)
	}
	w.live, w.peak = live, peak
	r.addr, r.size = u.Addr[lo:hi], u.Size[lo:hi]
	r.readW, r.writeW, r.ops, r.peak = readW, writeW, ops, peak
	r.lane, r.s0, r.s1 = t, s0, s1
	return true, nil
}

// completion reads the final invariant totals off the lanes' isolated
// suffix tables: a composed replay consumes every segment of every lane
// exactly once, so words, op cycles, line probes and pipelined words
// are the lanes' sums, known before the walk starts.
func (w *compWalker) completion(cfg memsim.Config) (completion, bool) {
	if !memsim.BoundEligible(cfg) {
		// Latencies out of order: an unprobed access has no cheapest
		// outcome to price it at.
		return completion{}, false
	}
	var c completion
	for _, u := range w.lanes {
		t := u.isoSuffixFor(cfg)
		w.isos = append(w.isos, t)
		c.inv.ReadWords += t.inv.ReadWords
		c.inv.WriteWords += t.inv.WriteWords
		c.inv.OpCycles += t.inv.OpCycles
		c.probes += t.probes
		c.pipelined += t.pipelined
	}
	return c, true
}

// suffix prices the unwalked remainder: each lane's isolated L1 misses
// and first line touches from its next checkpoint on.
func (w *compWalker) suffix() (misses, cold uint64) {
	for li, t := range w.isos {
		m, c := t.suffixAt(w.cursor[li])
		misses += m
		cold += c
	}
	return misses, cold
}

// views returns each lane's memoized sampled view per family kernel:
// a sampled plan without exact LineSim leftovers replays kept lines
// only, with exact invariants from the views' prefix sums.
func (w *compWalker) views(geoms []*memsim.GeomSim, sampleShift uint32) [][]*sampledView {
	out := make([][]*sampledView, len(w.lanes))
	for li, u := range w.lanes {
		out[li] = make([]*sampledView, len(geoms))
		for k, gs := range geoms {
			out[li][k] = u.viewFor(uint32(bits.TrailingZeros32(gs.LineBytes())), sampleShift)
		}
	}
	return out
}

// ComposedPeak reconstructs the EXACT footprint peak of one DDT
// combination from its composition alone — the same
// schedule walk a composed replay performs, with no probe kernel
// attached. Footprint is platform-invariant and, unlike the cache
// behaviour, composes without any interference term (while one lane's
// segment runs every other lane's live bytes are constant), so the
// bound-guided search can use the exact composed footprint as the
// fourth axis of an otherwise lower-bound vector at a tiny fraction of
// a replay's cost: O(segments), zero probes, zero varint decoding.
func ComposedPeak(c Composition) (uint64, error) {
	if err := c.check(); err != nil {
		return 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	lanes, cursor := c.Lanes, sc.cw.cursor
	for range lanes {
		cursor = append(cursor, 0)
	}
	sc.cw.cursor = cursor
	var live, peak uint64
	for _, tok := range c.Sched.Tokens {
		t := int(tok)
		if t >= len(lanes) {
			return 0, fmt.Errorf("astream: schedule token %d outside %d lanes", t, len(lanes))
		}
		u, s := lanes[t], cursor[t]
		if s >= len(u.SegOps) {
			return 0, errSegMismatch
		}
		cursor[t] = s + 1
		live, peak = advanceLive(u.SegMax[s], u.SegEnd[s], live, peak)
	}
	return peak, nil
}
