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
// cycle formula: a Hierarchy counts hits, misses, words and pipelined
// words, and computes cycles from those counts in closed form
// (Config.CyclesFor) rather than accumulating them per probe.
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

// EventSink observes the word-access stream a Hierarchy is driven with.
// The stream is platform-invariant — addresses come from the virtual
// heap and operation sequences from the application, neither of which
// consults cache state — which is what makes recording it once and
// replaying it against other platform configurations sound (see
// internal/astream).
//
// To keep the live-simulation overhead to one dynamic call per memory
// access, ALU ops are not reported individually: the hierarchy
// accumulates them and hands the total charged since the previous event
// to the next RecordAccess. RecordOps only carries trailing ops forced
// out by a detach (SetEventSink) or an op boundary (Boundary). The
// reordering is unobservable: op totals are additive and every cost
// snapshot the simulator takes happens on an access.
type EventSink interface {
	// RecordAccess observes one load (write=false) or store, together
	// with the ALU op cycles charged since the previous recorded event.
	RecordAccess(write bool, addr, size uint32, ops uint64)
	// RecordOps observes ALU op cycles with no following access.
	RecordOps(ops uint64)
}

// BoundarySink is an EventSink that additionally wants operation-boundary
// markers: the seam compositional capture uses to segment the event
// stream per container role. The DDT layer announces the owning lane at
// the start of every container operation (lane 0 is ambient application
// work, lanes 1.. are container roles in the application's role order);
// everything recorded between two markers belongs to the lane of the
// first. Sinks that do not implement BoundarySink never see markers and
// observe the flat stream exactly as before.
type BoundarySink interface {
	EventSink
	// RecordBoundary observes the start of an operation owned by lane.
	// Op cycles pending at the boundary are flushed to RecordOps first,
	// so they land in the lane that charged them.
	RecordBoundary(lane int)
}

// Hierarchy is the simulated memory subsystem. Create one per simulation
// with New; it is not safe for concurrent use (one simulation = one
// goroutine, matching the single-threaded NetBench applications).
type Hierarchy struct {
	cfg Config
	// sim holds the cache state and the hit/miss counters; counts holds
	// the word and op counters, pipelined the extra words of multi-word
	// accesses beyond the first of each line.
	sim       *LineSim
	counts    Counts
	pipelined uint64

	// sink, when set, receives every access before it is accounted;
	// sinkOps accumulates op cycles not yet handed to it. bsink caches
	// the sink's BoundarySink side (nil when the sink has none), so
	// Boundary costs one nil check when markers are not wanted.
	sink    EventSink
	bsink   BoundarySink
	sinkOps uint64

	// Early-abort hook: abortFn is consulted every abortEvery line probes
	// and stops the simulation (via an Aborted panic) when it returns
	// true. Installed by SetAbortCheck; nil when early abort is off.
	abortFn    func() bool
	abortEvery uint64
	sinceCheck uint64
}

// SetEventSink tees the hierarchy's event stream into s; nil detaches.
// Detaching (or replacing) flushes op cycles not yet reported to the
// outgoing sink via RecordOps, so a capture always accounts the full op
// total. The cost while detached is one branch per Read/Write/Op.
func (h *Hierarchy) SetEventSink(s EventSink) {
	if h.sink != nil && h.sinkOps != 0 {
		h.sink.RecordOps(h.sinkOps)
	}
	h.sinkOps = 0
	h.sink = s
	h.bsink, _ = s.(BoundarySink)
}

// Boundary announces the start of an operation owned by lane to a
// boundary-aware sink. Pending op cycles are flushed first so they are
// attributed to the lane that charged them. Without a BoundarySink
// attached this is a nil check — the DDT layer calls it on every
// container operation, captured or not.
func (h *Hierarchy) Boundary(lane int) {
	if h.bsink == nil {
		return
	}
	if h.sinkOps != 0 {
		h.bsink.RecordOps(h.sinkOps)
		h.sinkOps = 0
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

// SetAbortCheck installs fn to be polled every `every` cache-line probes;
// when fn reports true the hierarchy stops the simulation by panicking
// with *Aborted, which the caller that installed the check must recover.
// A nil fn (or every == 0) removes the check. The polling cost is one
// branch per probe while disabled.
func (h *Hierarchy) SetAbortCheck(every uint64, fn func() bool) {
	if fn == nil || every == 0 {
		h.abortFn, h.abortEvery, h.sinceCheck = nil, 0, 0
		return
	}
	h.abortFn = fn
	h.abortEvery = every
	h.sinceCheck = 0
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{cfg: cfg, sim: NewLineSim(cfg)}
}

// Read simulates loading size bytes starting at virtual address addr.
func (h *Hierarchy) Read(addr, size uint32) {
	if h.sink != nil {
		h.sink.RecordAccess(false, addr, size, h.sinkOps)
		h.sinkOps = 0
	}
	h.access(addr, size, false)
}

// Write simulates storing size bytes starting at virtual address addr.
func (h *Hierarchy) Write(addr, size uint32) {
	if h.sink != nil {
		h.sink.RecordAccess(true, addr, size, h.sinkOps)
		h.sinkOps = 0
	}
	h.access(addr, size, true)
}

// Op charges n ALU cycles (comparisons, pointer arithmetic, checksum
// work inside the application) without touching memory.
func (h *Hierarchy) Op(n uint64) {
	if h.sink != nil {
		h.sinkOps += n
	}
	h.counts.OpCycles += n
}

func (h *Hierarchy) access(addr, size uint32, write bool) {
	if size == 0 {
		return
	}
	words := uint64((size + 3) / 4)
	if write {
		h.counts.WriteWords += words
	} else {
		h.counts.ReadWords += words
	}
	first, last := h.sim.LineSpan(addr, size)
	lines := uint64(last - first + 1)
	if h.abortFn == nil {
		h.sim.probeSpan(first, last)
	} else if h.sinceCheck+lines < h.abortEvery {
		h.sinceCheck += lines // no poll falls due inside this access
		h.sim.probeSpan(first, last)
	} else {
		h.probePolled(first, last)
	}
	// Words beyond the first of each probed line are pipelined; added
	// after the walk so an abort inside it reports the cycles up to its
	// probe.
	if words > lines {
		h.pipelined += words - lines
	}
}

// probePolled walks an access's lines one at a time, polling the abort
// check before each probe it is due on. It invalidates the skip window
// first, since the walk bypasses the window bookkeeping.
func (h *Hierarchy) probePolled(first, last uint32) {
	h.sim.lastFirst, h.sim.lastLine = noLine, noLine
	for line := first; line <= last; line++ {
		h.sinceCheck++
		if h.sinceCheck >= h.abortEvery {
			h.sinceCheck = 0
			if h.abortFn() {
				panic(&Aborted{Counts: h.Counts(), Cycles: h.Cycles()})
			}
		}
		h.sim.ProbeLine(line)
	}
}

// Counts returns the accumulated event counters.
func (h *Hierarchy) Counts() Counts {
	c := h.counts
	c.L1Hits, c.L2Hits, c.DRAMFills = h.sim.L1Hits, h.sim.L2Hits, h.sim.DRAMFills
	return c
}

// Cycles returns the total simulated cycles so far.
func (h *Hierarchy) Cycles() uint64 { return h.cfg.CyclesFor(h.Counts(), h.pipelined) }

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
