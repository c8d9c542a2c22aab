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
// arena-mode run records one segmented lane per owner — lane 0 for
// ambient application work, lanes 1..K for the container roles — plus
// the schedule of which lane owns each operation. Because every role
// allocates from a private address arena and the application's logical
// operation sequence is DDT-invariant (the refinement never changes
// functionality), a lane depends only on that lane's own DDT kind. Any
// combination's full access stream is therefore the deterministic
// interleave of lanes at the recorded operation boundaries: 10
// all-same-kind runs yield all 10·K lanes the whole 10^K combination
// space composes from.
//
// A segment is the event span from one operation boundary to the next:
// the owning role's accesses and op cycles, plus any ambient work until
// the next operation starts (ambient content is DDT-invariant, so its
// attribution to the preceding segment composes exactly). Each segment
// carries the owning arena's footprint deltas, which is how a composed
// replay reconstructs the global footprint peak bit-exactly: while one
// lane's segment runs, every other lane's live bytes are constant, so
// the global high-water mark is the maximum over segments of (total
// live at segment start + segment max-delta).
//
// A lane has one resident form, the struct-of-arrays UnpackedLane the
// replay kernel reads, and ComposedRecorder captures straight into it.
// Its serialized form, for cache files and worker deltas, is the chunk
// encoding of a SubStream: Encode writes it and Unpack reads it back,
// field for field.

// SubStream is one lane's serialized form, for one (role, kind) pair:
// the embedded Stream holds the event chunks, with a tagSeg terminator
// (the segment's footprint deltas) ending every segment. Peak is
// meaningless here — footprint travels in the segment deltas instead.
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

// ComposedRecorder captures the lanes of an arena-mode run at once,
// straight into their decoded form. It implements memsim.BoundarySink:
// every event routes to the lane the most recent boundary announced —
// an access appends its address, size and write bit to the lane's
// arrays — and each boundary seals the previous lane's segment
// aggregates with its arena's footprint deltas. No lane is encoded
// here. Like Recorder it is single-simulation, single-goroutine state;
// call Finish exactly once, or drop the recorder of an aborted run,
// whose lanes prove nothing about the full run.
type ComposedRecorder struct {
	roles  []string
	lanes  []*capLane
	meters []LaneMeter
	tokens []byte
	cur    int
}

// capLane is one lane under capture: its access arrays, its sealed
// segments, and the aggregates of its open segment — op cycles, words
// accessed, words stored. A segment is sealed as one record; Finish
// splits the records into the lane's per-segment arrays.
type capLane struct {
	addr, size         []uint32
	write              []uint64
	segs               []capSeg
	ops, words, writeW uint64
}

// capSeg is one sealed segment of a lane under capture: the index past
// its last access, its aggregates and its arena's footprint deltas.
type capSeg struct {
	end, readW, writeW uint32
	ops, maxD          uint64
	endD               int64
}

// capturePool recycles capLanes, arrays emptied: Finish copies every
// lane out at its exact length, so a warm pool lets a capture append
// without growth copies and allocate each lane's arrays once.
var capturePool sync.Pool

// NewComposedRecorder returns a composed recorder for the given role
// order. meters must hold one LaneMeter per lane: meters[0] for the
// ambient (default-arena) lane, meters[i+1] for roles[i]. record, when
// non-nil, selects the lanes to capture (index = lane); the schedule
// still covers every lane, but a lane left out costs nothing — a
// caller that already holds it need not pay for it again. The ambient
// prelude segment is open on return.
func NewComposedRecorder(roles []string, meters []LaneMeter, record []bool) *ComposedRecorder {
	if len(meters) != len(roles)+1 {
		panic(fmt.Sprintf("astream: %d roles need %d lane meters, got %d", len(roles), len(roles)+1, len(meters)))
	}
	c := &ComposedRecorder{
		roles:  append([]string(nil), roles...),
		lanes:  make([]*capLane, len(meters)),
		meters: meters,
	}
	for i := range c.lanes {
		if record != nil && !record[i] {
			continue
		}
		l, _ := capturePool.Get().(*capLane)
		if l == nil {
			l = &capLane{}
		}
		c.lanes[i] = l
	}
	c.meters[0].BeginSegment()
	c.tokens = append(c.tokens, 0)
	return c
}

// RecordBatch appends a batch of accesses to the current lane
// (memsim.EventSink): the hierarchy hands its queued accesses over
// before every boundary, so a batch lies in one lane.
func (c *ComposedRecorder) RecordBatch(b memsim.Batch) {
	l := c.lanes[c.cur]
	if l == nil {
		return // not recorded
	}
	n := len(l.addr)
	for i, size := range b.Size {
		if n&63 == 0 {
			l.write = append(l.write, 0)
		}
		var w uint64
		if b.Write[i] {
			w = 1
		}
		l.write[n>>6] |= w << (n & 63)
		words := (uint64(size) + 3) / 4
		l.words += words
		l.writeW += words * w
		l.ops += b.Ops[i]
		n++
	}
	l.addr = append(l.addr, b.Addr...)
	l.size = append(l.size, b.Size...)
}

// RecordOps adds op cycles to the current lane's segment
// (memsim.EventSink).
func (c *ComposedRecorder) RecordOps(n uint64) {
	if l := c.lanes[c.cur]; l != nil {
		l.ops += n
	}
}

// RecordBoundary seals the current lane's segment and opens one for lane
// (memsim.BoundarySink).
func (c *ComposedRecorder) RecordBoundary(lane int) {
	c.seal()
	c.cur = lane
	c.meters[lane].BeginSegment()
	c.tokens = append(c.tokens, byte(lane))
}

// seal closes the current lane's open segment.
func (c *ComposedRecorder) seal() {
	l := c.lanes[c.cur]
	if l == nil {
		return
	}
	maxD, endD := c.meters[c.cur].SegmentStats()
	l.segs = append(l.segs, capSeg{
		end:    uint32(len(l.addr)),
		readW:  uint32(l.words - l.writeW),
		writeW: uint32(l.writeW),
		ops:    l.ops,
		maxD:   maxD,
		endD:   endD,
	})
	l.ops, l.words, l.writeW = 0, 0, 0
}

// Finish seals the final segment and returns the run's schedule and its
// lanes (index = lane, nil for a lane not recorded), every array
// allocated at its exact length: growth slack would be retained for as
// long as the lane is, and charged nowhere. The recorder must not be
// used afterwards.
func (c *ComposedRecorder) Finish() (*Schedule, []*UnpackedLane) {
	c.seal()
	lanes := make([]*UnpackedLane, len(c.lanes))
	for i, l := range c.lanes {
		if l == nil {
			continue
		}
		n := len(l.segs)
		u := &UnpackedLane{
			Lane:      i,
			Addr:      append([]uint32(nil), l.addr...),
			Size:      append([]uint32(nil), l.size...),
			Write:     append([]uint64(nil), l.write...),
			SegIdx:    make([]uint32, n+1),
			SegOps:    make([]uint64, n),
			SegReadW:  make([]uint32, n),
			SegWriteW: make([]uint32, n),
			SegMax:    make([]uint64, n),
			SegEnd:    make([]int64, n),
		}
		if i > 0 {
			u.Role = c.roles[i-1]
		}
		for s, g := range l.segs {
			u.SegIdx[s+1] = g.end
			u.SegOps[s], u.SegReadW[s], u.SegWriteW[s] = g.ops, g.readW, g.writeW
			u.SegMax[s], u.SegEnd[s] = g.maxD, g.endD
		}
		lanes[i] = u
		l.addr, l.size, l.write, l.segs = l.addr[:0], l.size[:0], l.write[:0], l.segs[:0]
		capturePool.Put(l)
	}
	sched := &Schedule{Tokens: append([]byte(nil), c.tokens...), Roles: c.roles}
	c.lanes, c.meters, c.tokens = nil, nil, nil
	return sched, lanes
}

// errSegMismatch reports a schedule that demands more segments than a
// lane holds — a mismatched lane set.
var errSegMismatch = errors.New("astream: schedule and lane segments disagree")

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

// UnpackedLane is a lane in the struct-of-arrays form the probe kernel
// consumes directly: flat address/size arrays indexed per segment, with
// the platform-invariant per-segment aggregates (op cycles, word
// counts, footprint deltas) precomputed. It is the lane's one resident
// form — ComposedRecorder captures into it, Unpack decodes a serialized
// lane into it once, and Encode serializes it — so evaluating one more
// combination is a probe-only pass over shared arrays. An UnpackedLane
// is immutable and safe for concurrent replays.
type UnpackedLane struct {
	Role string
	Lane int

	Addr []uint32
	Size []uint32
	// Write holds one bit per access, set for a store: bit i%64 of word
	// i/64. Replay prices stores through the segment word counts; the
	// bits are what Encode needs to write the access events back.
	Write []uint64

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

// SizeBytes returns the in-memory footprint of the lane's arrays.
func (u *UnpackedLane) SizeBytes() int {
	return 8*len(u.Addr) + 8*len(u.Write) + 4*len(u.SegIdx) + 32*len(u.SegOps)
}

// Encode serializes the lane as a SubStream. Each segment's op cycles
// travel as one op event before its terminator, so the chunks need not
// match those a Recorder would have written, but Unpack returns the
// lane field for field.
func (u *UnpackedLane) Encode() *SubStream {
	r := NewRecorder()
	for s := range u.SegOps {
		for i := u.SegIdx[s]; i < u.SegIdx[s+1]; i++ {
			r.record(u.Write[i>>6]>>(i&63)&1 != 0, u.Addr[i], u.Size[i], 0)
		}
		r.RecordOps(u.SegOps[s])
		r.recordSeg(u.SegMax[s], u.SegEnd[s])
	}
	return &SubStream{Stream: *r.Finish(false), Role: u.Role, Lane: u.Lane, Segments: uint64(len(u.SegOps))}
}

// errLaneCounts reports a serialized lane whose events disagree with
// its declared access or segment count, or that ends inside a segment.
var errLaneCounts = errors.New("astream: lane events disagree with its declared counts")

// Unpack decodes the sub-stream into its struct-of-arrays form, one
// segment per decode. The declared counts come from a cache file or a
// worker's delta, so they size the arrays only as far as the encoded
// bytes can back them (an access takes at least two bytes, a segment
// terminator three), and a decode that disagrees with them is refused.
// The access arrays hold one spare slot: a decode that fills it has
// found more accesses than declared.
func (s *SubStream) Unpack() (*UnpackedLane, error) {
	if s.Partial {
		return nil, ErrPartial
	}
	enc := uint64(s.SizeBytes())
	nAcc, nSeg := min(s.Accesses, enc/2), min(s.Segments, enc/3)
	addr, size, write := make([]uint32, nAcc+1), make([]uint32, nAcc+1), make([]uint64, (nAcc+64)/64)
	u := &UnpackedLane{
		Role:      s.Role,
		Lane:      s.Lane,
		SegIdx:    make([]uint32, 1, nSeg+1),
		SegOps:    make([]uint64, 0, nSeg),
		SegReadW:  make([]uint32, 0, nSeg),
		SegWriteW: make([]uint32, 0, nSeg),
		SegMax:    make([]uint64, 0, nSeg),
		SegEnd:    make([]int64, 0, nSeg),
	}
	d := decoder{chunks: s.Chunks, addr: addr, size: size, write: write}
	for {
		n := d.n
		if err := d.decode(); err != nil {
			return nil, err
		}
		if !d.seg {
			// Every declared access and segment decoded, and nothing
			// trails the last segment terminator.
			if d.n != n || d.ops != 0 || uint64(n) != s.Accesses || uint64(len(u.SegOps)) != s.Segments {
				return nil, errLaneCounts
			}
			u.Addr, u.Size, u.Write = addr[:n], size[:n], write[:(n+63)/64]
			return u, nil
		}
		u.SegIdx = append(u.SegIdx, uint32(d.n))
		u.SegOps = append(u.SegOps, d.ops)
		u.SegReadW = append(u.SegReadW, uint32(d.readW))
		u.SegWriteW = append(u.SegWriteW, uint32(d.writeW))
		u.SegMax = append(u.SegMax, d.segMax)
		u.SegEnd = append(u.SegEnd, d.segEnd)
	}
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
