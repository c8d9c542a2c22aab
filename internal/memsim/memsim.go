// Package memsim simulates the memory subsystem the DDTs execute against:
// a two-level set-associative cache hierarchy in front of DRAM, with cycle
// accounting for both memory accesses and ALU work.
//
// The paper evaluates DDT implementations by the number of memory accesses
// they issue and by the execution time and energy those accesses cost on an
// embedded memory hierarchy (energy estimated "using an updated version of
// the CACTI model"). Go wall-clock time cannot stand in for that — the GC
// and the host cache state pollute it — so every simulated word access is
// routed through a Hierarchy which models hits, misses and latencies
// deterministically.
//
// Granularity: the unit of the "memory accesses" metric is one 32-bit word
// load or store (the paper targets 32-bit embedded platforms). Cache state
// is tracked per line; a multi-word access probes each distinct line it
// touches once and the remaining words of the access pay a pipelined
// single cycle.
//
// Live and replayed simulation share one probe kernel (LineSim) and one
// cycle formula. A Hierarchy counts words and op cycles as they are
// issued, queues each access in a batch of BatchAccesses, and probes the
// batch through LineSim.ProbeAccesses — the kernel replay drives — when
// it is full or its counts are read; cycles come from the counts in
// closed form (Config.CyclesFor) rather than accumulating per probe. An
// attached EventSink takes the accesses one call per batch, not one per
// access, and an abort check (SetAbortCheck) is polled once per full
// batch, as stream replay polls its guard.
package memsim

import "fmt"

// Config describes the simulated platform.
type Config struct {
	L1 CacheGeometry
	L2 CacheGeometry

	L1HitCycles   uint64 // latency of an L1 hit
	L2HitCycles   uint64 // latency of an L1 miss that hits L2
	DRAMCycles    uint64 // latency of an access that misses both caches
	PipelinedWord uint64 // cost of each additional word within a hit line

	ClockHz float64 // processor clock; converts cycles to seconds
}

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	SizeBytes uint32 // total capacity
	LineBytes uint32 // line size (power of two)
	Assoc     uint32 // ways per set
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeometry) Sets() uint32 {
	return g.SizeBytes / (g.LineBytes * g.Assoc)
}

// DefaultConfig returns the platform model used throughout the
// reproduction: an embedded-class memory hierarchy — 8 KiB 2-way L1 and
// 128 KiB 8-way L2 with 32-byte lines — clocked at 1.6 GHz. The paper
// optimizes consumer embedded devices, and its trade-offs hinge on the
// dominant containers NOT fitting comfortably in the first-level cache;
// a desktop-sized L1 would hide exactly the locality differences the
// exploration exists to expose.
func DefaultConfig() Config {
	return Config{
		L1:            CacheGeometry{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2},
		L2:            CacheGeometry{SizeBytes: 128 << 10, LineBytes: 32, Assoc: 8},
		L1HitCycles:   2,
		L2HitCycles:   18,
		DRAMCycles:    150,
		PipelinedWord: 1,
		ClockHz:       1.6e9,
	}
}

// Counts aggregates the event counters a simulation accumulates.
type Counts struct {
	ReadWords  uint64 // word loads issued (the paper's "memory accesses", read part)
	WriteWords uint64 // word stores issued
	L1Hits     uint64 // line probes that hit L1
	L2Hits     uint64 // line probes that missed L1 and hit L2
	DRAMFills  uint64 // line probes that missed both levels
	OpCycles   uint64 // ALU cycles charged via Op
}

// Accesses returns total word accesses (reads + writes).
func (c Counts) Accesses() uint64 { return c.ReadWords + c.WriteWords }

// LineProbes returns total cache line probes.
func (c Counts) LineProbes() uint64 { return c.L1Hits + c.L2Hits + c.DRAMFills }

// Batch is a run of consecutive accesses as a Hierarchy hands them to
// its sink: access i loads (Write[i] false) or stores Size[i] > 0 bytes
// at Addr[i], after Ops[i] ALU op cycles charged since the previous
// access. The slices are the hierarchy's own buffers, valid only for
// the duration of the call.
type Batch struct {
	Addr, Size []uint32
	Write      []bool
	Ops        []uint64
}

// EventSink observes the word-access stream a Hierarchy is driven with.
// The stream is platform-invariant — addresses come from the virtual
// heap and operation sequences from the application, neither of which
// consults cache state — which is what makes recording it once and
// replaying it against other platform configurations sound (see
// internal/astream).
//
// A sink takes one call per batch, not one per access: the hierarchy
// hands over its queued accesses when the batch is full, before an
// operation boundary (Boundary), when the sink is detached or replaced
// (SetEventSink) and on Flush. ALU ops are not reported individually:
// each access carries the op total charged since the previous one, and
// RecordOps only carries trailing ops forced out by a detach
// (SetEventSink) or an op boundary (Boundary). The reordering is
// unobservable: op totals are additive and every cost snapshot the
// simulator takes happens on an access. A zero-size access is a no-op
// and never reaches a sink; the ops before it travel with the next
// access.
type EventSink interface {
	// RecordBatch observes a batch of loads and stores in order.
	RecordBatch(b Batch)
	// RecordOps observes ALU op cycles with no following access.
	RecordOps(ops uint64)
}

// BoundarySink is an EventSink that additionally wants operation-boundary
// markers: the seam compositional capture uses to segment the event
// stream per container role. The DDT layer announces the owning lane at
// the start of every container operation (lane 0 is ambient application
// work, lanes 1.. are container roles in the application's role order);
// everything recorded between two markers belongs to the lane of the
// first. The hierarchy hands over its queued accesses before each
// marker, so every batch a BoundarySink receives lies in one lane. Sinks
// that do not implement BoundarySink never see markers and observe the
// flat stream exactly as before.
type BoundarySink interface {
	EventSink
	// RecordBoundary observes the start of an operation owned by lane.
	// Op cycles pending at the boundary are flushed to RecordOps first,
	// so they land in the lane that charged them.
	RecordBoundary(lane int)
}

// BatchAccesses is how many accesses a Hierarchy queues before it
// probes them and polls its abort check: the live run's batch, and the
// batch the stream replayer decodes (internal/astream), so a guarded
// live run and a guarded replay of its stream poll after the same
// accesses.
const BatchAccesses = 2048

// Hierarchy is the simulated memory subsystem. Create one per simulation
// with New; it is not safe for concurrent use (one simulation = one
// goroutine, matching the single-threaded NetBench applications).
type Hierarchy struct {
	cfg Config
	// sim holds the cache state, the hit/miss counters and the
	// pipelined words; counts holds the word and op counters.
	sim    *LineSim
	counts Counts

	// The batch: n accesses queued since the last full one, of which
	// the first probed have been probed (by a counts read) and the
	// first sent handed to the sink. ops, allocated on the first sink
	// attach and written only while a sink is attached, holds at index
	// i the op cycles charged before access i: Op adds to the entry of
	// the next access, ops[n] (n < BatchAccesses between calls: a full
	// batch is emptied before Read or Write returns).
	n, probed, sent int
	addr, size      [BatchAccesses]uint32
	write           [BatchAccesses]bool
	ops             *[BatchAccesses]uint64

	// sink, when set, receives every access in batches; bsink caches
	// the sink's BoundarySink side (nil when the sink has none), so
	// Boundary costs one nil check when markers are not wanted.
	sink  EventSink
	bsink BoundarySink

	// abortFn, when set, is polled after every full batch and stops the
	// simulation (via an Aborted panic) when it returns true.
	abortFn func() bool
}

// SetEventSink tees the hierarchy's event stream into s; nil detaches.
// The outgoing sink first receives the queued accesses it has not seen
// and, via RecordOps, the op cycles charged since the last of them, so
// a capture always accounts the full op total; the incoming sink sees
// only accesses issued after the call. The cost while detached is one
// branch per Op.
func (h *Hierarchy) SetEventSink(s EventSink) {
	h.Flush()
	if h.sink != nil {
		if ops := h.takeOps(); ops != 0 {
			h.sink.RecordOps(ops)
		}
	}
	h.sink = s
	h.bsink, _ = s.(BoundarySink)
	if s != nil && h.ops == nil {
		h.ops = new([BatchAccesses]uint64)
	}
}

// takeOps returns and clears the op cycles charged since the last
// queued access.
func (h *Hierarchy) takeOps() uint64 {
	ops := h.ops[h.n]
	h.ops[h.n] = 0
	return ops
}

// Flush hands the attached sink the queued accesses it has not yet
// received, so a caller interleaving its own events with the sink's
// (platform.Capture's footprint snapshots) keeps them in order. The
// accesses stay queued for probing; without a sink Flush does nothing.
func (h *Hierarchy) Flush() {
	if h.sink != nil && h.sent < h.n {
		lo, hi := h.sent, h.n
		h.sink.RecordBatch(Batch{Addr: h.addr[lo:hi], Size: h.size[lo:hi], Write: h.write[lo:hi], Ops: h.ops[lo:hi]})
		clear(h.ops[lo:hi])
	}
	h.sent = h.n
}

// Boundary announces the start of an operation owned by lane to a
// boundary-aware sink. Queued accesses and pending op cycles are
// handed over first so they are attributed to the lane that issued
// them. Without a BoundarySink attached this is a nil check — the DDT
// layer calls it on every container operation, captured or not.
func (h *Hierarchy) Boundary(lane int) {
	if h.bsink == nil {
		return
	}
	h.Flush()
	if ops := h.takeOps(); ops != 0 {
		h.bsink.RecordOps(ops)
	}
	h.bsink.RecordBoundary(lane)
}

// Aborted is the sentinel the hierarchy panics with when an installed
// abort check fires. The simulation driver (the exploration Engine)
// recovers it at the application boundary and records the run as aborted;
// application code never observes it. Counts and Cycles hold the partial
// state at the moment of the abort.
type Aborted struct {
	Counts Counts
	Cycles uint64
}

// Error makes an escaped Aborted readable in a crash log; it is not an
// error value the simulator ever returns.
func (a *Aborted) Error() string {
	return fmt.Sprintf("memsim: simulation aborted by cost check after %d cycles", a.Cycles)
}

// SetAbortCheck installs fn to be polled once per full batch, after the
// batch is probed: after every BatchAccesses-th access of the run. When
// fn reports true the hierarchy stops the simulation by panicking with
// *Aborted, which the caller that installed the check must recover;
// Counts and Cycles then hold the exact state after the batch's last
// access. A nil fn removes the check. Reading the counts (Counts,
// Cycles, Seconds) probes the queued accesses but never polls, so it
// cannot panic, and it does not move the poll points.
func (h *Hierarchy) SetAbortCheck(fn func() bool) { h.abortFn = fn }

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{cfg: cfg, sim: NewLineSim(cfg)}
}

// Read simulates loading size bytes starting at virtual address addr.
func (h *Hierarchy) Read(addr, size uint32) {
	if size == 0 {
		return
	}
	h.counts.ReadWords += uint64((size + 3) / 4)
	i := h.n & (BatchAccesses - 1) // h.n < BatchAccesses; the mask drops the bounds checks
	h.addr[i], h.size[i], h.write[i] = addr, size, false
	if h.n = i + 1; h.n == BatchAccesses {
		h.full()
	}
}

// Write simulates storing size bytes starting at virtual address addr.
func (h *Hierarchy) Write(addr, size uint32) {
	if size == 0 {
		return
	}
	h.counts.WriteWords += uint64((size + 3) / 4)
	i := h.n & (BatchAccesses - 1)
	h.addr[i], h.size[i], h.write[i] = addr, size, true
	if h.n = i + 1; h.n == BatchAccesses {
		h.full()
	}
}

// full hands a full batch to the sink, probes it, empties it and polls
// the abort check.
func (h *Hierarchy) full() {
	h.Flush()
	h.probe()
	h.n, h.probed, h.sent = 0, 0, 0
	if h.abortFn != nil && h.abortFn() {
		panic(&Aborted{Counts: h.Counts(), Cycles: h.Cycles()})
	}
}

// probe probes the queued accesses not yet probed.
func (h *Hierarchy) probe() {
	if lo, hi := h.probed, h.n; lo < hi {
		h.sim.ProbeAccesses(h.addr[lo:hi], h.size[lo:hi])
		h.probed = hi
	}
}

// Op charges n ALU cycles (comparisons, pointer arithmetic, checksum
// work inside the application) without touching memory.
func (h *Hierarchy) Op(n uint64) {
	if h.sink != nil {
		h.ops[h.n] += n
	}
	h.counts.OpCycles += n
}

// Counts returns the accumulated event counters, probing the queued
// accesses first.
func (h *Hierarchy) Counts() Counts {
	h.probe()
	c := h.counts
	c.L1Hits, c.L2Hits, c.DRAMFills = h.sim.L1Hits, h.sim.L2Hits, h.sim.DRAMFills
	return c
}

// Cycles returns the total simulated cycles so far.
func (h *Hierarchy) Cycles() uint64 { return h.cfg.CyclesFor(h.Counts(), h.sim.Pipelined()) }

// Seconds converts the accumulated cycles to seconds at the configured
// clock.
func (h *Hierarchy) Seconds() float64 {
	return float64(h.Cycles()) / h.cfg.ClockHz
}

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// cache is one set-associative LRU cache level tracked at line
// granularity. Tags live in one flat array with a fixed stride of assoc
// entries per set, most-recently-used first, empty ways holding a
// sentinel; the contiguous layout keeps the whole simulated tag store in
// a few host cache lines per set, and with the small associativities
// used here a linear scan beats fancier structures.
type cache struct {
	tags  []uint32 // nsets*assoc entries, MRU first within each set
	assoc uint32
	nsets uint32
	mask  uint32 // set-index mask when the set count is a power of two
	pow2  bool
}

// invalidTag marks an empty way. Real line indices stay below it for
// every line size >= 2 bytes of the 32-bit simulated address space.
const invalidTag = ^uint32(0)

func newCache(g CacheGeometry) *cache {
	sets, assoc := effectiveGeometry(g)
	return &cache{
		tags:  newTagStore(sets * assoc),
		assoc: assoc,
		nsets: sets,
		mask:  sets - 1,
		pow2:  sets&(sets-1) == 0,
	}
}

// sameGeometry reports whether the cache was built from a geometry
// equivalent to g (same effective set count and associativity).
func (c *cache) sameGeometry(g CacheGeometry) bool {
	sets, assoc := effectiveGeometry(g)
	return c.nsets == sets && c.assoc == assoc
}

// setIndex maps a line address to its set.
func (c *cache) setIndex(line uint32) uint32 {
	if c.pow2 {
		return line & c.mask
	}
	return line % c.nsets
}

// touch probes line and leaves it MRU in its set either way: a hit
// (true) moves it to the front, a miss installs it there, evicting the
// LRU way of a full set — write-allocate, so every level a probe misses
// is filled. The MRU position is checked first: repeated probes of the
// hot line (adjacent words of a record, pointer-then-payload pairs) are
// the common case and need no reordering.
func (c *cache) touch(line uint32) bool {
	base := c.setIndex(line) * c.assoc
	tags := c.tags[base : base+c.assoc]
	if tags[0] == line {
		return true
	}
	for i := uint32(1); i < c.assoc; i++ {
		if tags[i] == line {
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			return true
		}
	}
	copy(tags[1:], tags[:c.assoc-1])
	tags[0] = line
	return false
}
