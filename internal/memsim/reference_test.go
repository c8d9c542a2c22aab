package memsim_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// refLevel is one cache level of the reference model: a slice of sets,
// each holding its resident lines most-recently-used first, indexed by
// division. It shares no code with the simulator's kernels.
type refLevel struct {
	sets  [][]uint32
	assoc int
}

func newRefLevel(g memsim.CacheGeometry) *refLevel {
	n := g.SizeBytes / (g.LineBytes * g.Assoc)
	if n == 0 {
		n = 1 // a level smaller than one set still holds one set
	}
	return &refLevel{sets: make([][]uint32, n), assoc: int(g.Assoc)}
}

// lookup reports whether line is resident and, if so, makes it MRU.
func (l *refLevel) lookup(line uint32) bool {
	i := line % uint32(len(l.sets))
	set := l.sets[i]
	for w, t := range set {
		if t == line {
			l.sets[i] = append([]uint32{line}, append(set[:w:w], set[w+1:]...)...)
			return true
		}
	}
	return false
}

// insert installs line as MRU, dropping the LRU line of a full set.
func (l *refLevel) insert(line uint32) {
	i := line % uint32(len(l.sets))
	set := append([]uint32{line}, l.sets[i]...)
	if len(set) > l.assoc {
		set = set[:l.assoc]
	}
	l.sets[i] = set
}

// refHierarchy is the textbook model Hierarchy must reproduce bit for
// bit: every probed line walks L1 then L2, a miss fills L2 then L1
// (write-allocate, inclusive), each probe charges its level's latency,
// and each word of an access beyond the first of each line it touches
// charges PipelinedWord. Both levels are indexed by L1-sized lines. An
// access running past the top of the 32-bit address space counts its
// words but probes no line and charges no pipelined word.
type refHierarchy struct {
	cfg    memsim.Config
	l1, l2 *refLevel
	counts memsim.Counts
	cycles uint64
	// beforeProbe, when set, runs before every line probe.
	beforeProbe func()
}

func newRefHierarchy(cfg memsim.Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2)}
}

func (r *refHierarchy) access(addr, size uint32, write bool) {
	if size == 0 {
		return
	}
	words := uint64((size + 3) / 4)
	if write {
		r.counts.WriteWords += words
	} else {
		r.counts.ReadWords += words
	}
	if uint64(addr)+uint64(size) > 1<<32 {
		return
	}
	lb := r.cfg.L1.LineBytes
	first, last := addr/lb, (addr+size-1)/lb
	for line := uint64(first); line <= uint64(last); line++ {
		if r.beforeProbe != nil {
			r.beforeProbe()
		}
		r.probe(uint32(line))
	}
	if lines := uint64(last-first) + 1; words > lines {
		r.cycles += (words - lines) * r.cfg.PipelinedWord
	}
}

func (r *refHierarchy) probe(line uint32) {
	switch {
	case r.l1.lookup(line):
		r.counts.L1Hits++
		r.cycles += r.cfg.L1HitCycles
	case r.l2.lookup(line):
		r.counts.L2Hits++
		r.cycles += r.cfg.L2HitCycles
		r.l1.insert(line)
	default:
		r.counts.DRAMFills++
		r.cycles += r.cfg.DRAMCycles
		r.l2.insert(line)
		r.l1.insert(line)
	}
}

func (r *refHierarchy) op(n uint64) {
	r.counts.OpCycles += n
	r.cycles += n
}

// refOp is one event of a test stream: a load or store of size bytes at
// addr, or (isOp) n ALU cycles.
type refOp struct {
	addr, size uint32
	write      bool
	isOp       bool
	n          uint64
}

func (o refOp) apply(h *memsim.Hierarchy) {
	switch {
	case o.isOp:
		h.Op(o.n)
	case o.write:
		h.Write(o.addr, o.size)
	default:
		h.Read(o.addr, o.size)
	}
}

func (o refOp) applyRef(r *refHierarchy) {
	switch {
	case o.isOp:
		r.op(o.n)
	default:
		r.access(o.addr, o.size, o.write)
	}
}

// refStream draws a random event stream mixing the patterns the
// kernel's shortcuts key on: re-accesses inside the last line span,
// sequential walks, a small hot set, random jumps, spans of many lines,
// zero sizes, accesses ending exactly at and running past the top of
// the 32-bit address space, and interleaved ALU ops.
func refStream(rng *rand.Rand, n int) []refOp {
	ops := make([]refOp, 0, n)
	cursor := uint32(0x1000)
	hot := []uint32{0x2000, 0x2040, 0x41000, 0x82010}
	var last refOp
	for i := 0; i < n; i++ {
		o := refOp{write: rng.Intn(4) == 0}
		switch r := rng.Intn(100); {
		case r < 15 && !last.isOp: // inside (or around) the previous access
			o.addr = last.addr + uint32(rng.Intn(8))
			o.size = uint32(1 + rng.Intn(8))
		case r < 40:
			cursor += uint32(rng.Intn(40))
			o.addr, o.size = cursor, uint32(4*(1+rng.Intn(4)))
		case r < 60:
			o.addr, o.size = hot[rng.Intn(len(hot))]+uint32(rng.Intn(48)), 4
		case r < 75:
			o.addr, o.size = uint32(rng.Intn(4<<20)), uint32(1+rng.Intn(96))
		case r < 80:
			o.addr, o.size = uint32(rng.Intn(1<<20)), uint32(256+rng.Intn(2048))
		case r < 84:
			o.addr, o.size = uint32(rng.Intn(1<<20)), 0
		case r < 87:
			o.size = uint32(1 + rng.Intn(64))
			o.addr = uint32(1<<32 - uint64(o.size)) // ends on the last byte
		case r < 90:
			o.addr, o.size = ^uint32(0)-uint32(rng.Intn(16)), uint32(17+rng.Intn(64))
		default:
			o = refOp{isOp: true, n: uint64(1 + rng.Intn(5))}
		}
		ops = append(ops, o)
		last = o
	}
	return ops
}

// refConfigs spans the geometry space the kernel must handle: L1 lines
// of 16, 32 and 64 bytes; 1-, 2-, 4- and 8-way L1s; power-of-two and
// other set counts, a single set and a zero-capacity L1; and L2s of
// assorted associativity and set count.
func refConfigs(rng *rand.Rand) []memsim.Config {
	var out []memsim.Config
	for _, lb := range []uint32{16, 32, 64} {
		for _, a1 := range []uint32{1, 2, 4, 8} {
			for _, sets1 := range []uint32{0, 1, 3, 4, 6, 64, 96} {
				cfg := memsim.DefaultConfig()
				cfg.L1 = memsim.CacheGeometry{SizeBytes: lb * a1 * sets1, LineBytes: lb, Assoc: a1}
				a2 := []uint32{1, 2, 4, 8, 16}[rng.Intn(5)]
				sets2 := []uint32{1, 5, 16, 96, 512}[rng.Intn(5)]
				cfg.L2 = memsim.CacheGeometry{SizeBytes: lb * a2 * sets2, LineBytes: lb, Assoc: a2}
				cfg.PipelinedWord = uint64(1 + rng.Intn(3))
				out = append(out, cfg)
			}
		}
	}
	return out
}

func cfgName(c memsim.Config) string {
	return fmt.Sprintf("L1=%d/%d/%dw L2=%d/%d/%dw", c.L1.SizeBytes, c.L1.LineBytes, c.L1.Assoc,
		c.L2.SizeBytes, c.L2.LineBytes, c.L2.Assoc)
}

// checkAgainstReference drives a Hierarchy and the reference model with
// the same stream and fails at the first event after which their counts
// or cycles differ. A nonzero every arms an abort check polled every
// that many probes which never fires, so the polled walk is interleaved
// with the unpolled one.
func checkAgainstReference(t *testing.T, cfg memsim.Config, ops []refOp, every uint64) {
	t.Helper()
	h, ref := memsim.New(cfg), newRefHierarchy(cfg)
	h.SetAbortCheck(every, func() bool { return false })
	for i, o := range ops {
		o.apply(h)
		o.applyRef(ref)
		if h.Counts() != ref.counts || h.Cycles() != ref.cycles {
			t.Fatalf("%s: after event %d %+v:\n got  %+v cycles %d\n want %+v cycles %d",
				cfgName(cfg), i, o, h.Counts(), h.Cycles(), ref.counts, ref.cycles)
		}
	}
}

// TestHierarchyMatchesReference is the kernel's independent oracle:
// Counts and Cycles of the live Hierarchy equal the textbook LRU model
// after every event of random streams, across the geometry space, with
// and without an armed abort check.
func TestHierarchyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cfg := range refConfigs(rng) {
		for _, every := range []uint64{0, 3} {
			checkAgainstReference(t, cfg, refStream(rng, 3000), every)
		}
	}
}

// FuzzHierarchyMatchesReference feeds fuzzer-chosen geometries and
// streams to the same comparison. The geometry and the abort-poll
// interval take the first four bytes; each further 7-byte record is one
// event: a kind byte (low two bits: read, write, op, read; next two: the
// address range), a 32-bit address and a 16-bit size or op count.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 3, 0x21, 0, 0, 0x10, 0, 0, 8, 0, 1, 0, 0x10, 0, 4, 0, 0x2c, 0xff, 0xff, 0xff, 0xf0, 0x40, 0})
	f.Add([]byte{0, 3, 0, 0, 0x0c, 0x10, 0, 0, 0, 0, 1, 0x0d, 0x30, 0, 0, 0, 0x20, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		lb := []uint32{16, 32, 64}[data[0]%3]
		a1 := []uint32{1, 2, 4, 8}[data[1]%4]
		a2 := []uint32{1, 2, 4, 8, 16}[data[1]/4%5]
		cfg := memsim.DefaultConfig()
		cfg.L1 = memsim.CacheGeometry{SizeBytes: lb * a1 * uint32(data[2]%17), LineBytes: lb, Assoc: a1}
		cfg.L2 = memsim.CacheGeometry{SizeBytes: lb * a2 * (1 + uint32(data[3])), LineBytes: lb, Assoc: a2}
		var ops []refOp
		for rec := data[4:]; len(rec) >= 7; rec = rec[7:] {
			kind := rec[0]
			addr := binary.LittleEndian.Uint32(rec[1:5]) & []uint32{0xfff, 0xffff, 0xfffff, ^uint32(0)}[kind>>2&3]
			size := uint32(binary.LittleEndian.Uint16(rec[5:7]))
			switch kind & 3 {
			case 2:
				ops = append(ops, refOp{isOp: true, n: uint64(size)})
			default:
				ops = append(ops, refOp{addr: addr, size: size, write: kind&3 == 1})
			}
		}
		checkAgainstReference(t, cfg, ops, []uint64{0, 1, 3, 64}[data[0]/3%4])
	})
}

// refAbortState replays ops[arm:] after ops[:arm] through the reference
// model and returns its counts and cycles just before probe number
// (counted from arm) stop, or ok=false when the stream has fewer probes.
func refAbortState(cfg memsim.Config, ops []refOp, arm int, stop uint64) (memsim.Counts, uint64, bool) {
	ref := newRefHierarchy(cfg)
	for _, o := range ops[:arm] {
		o.applyRef(ref)
	}
	var probes uint64
	type snap struct {
		counts memsim.Counts
		cycles uint64
	}
	ref.beforeProbe = func() {
		if probes++; probes == stop {
			panic(snap{ref.counts, ref.cycles})
		}
	}
	var got *snap
	func() {
		defer func() {
			if r := recover(); r != nil {
				s := r.(snap)
				got = &s
			}
		}()
		for _, o := range ops[arm:] {
			o.applyRef(ref)
		}
	}()
	if got == nil {
		return memsim.Counts{}, 0, false
	}
	return got.counts, got.cycles, true
}

// runAborting applies ops to h, disarming the abort check before event
// disarm (when in range), and returns the *Aborted it panicked with, or
// nil when the stream completed.
func runAborting(h *memsim.Hierarchy, ops []refOp, disarm int) (ab *memsim.Aborted) {
	defer func() {
		if r := recover(); r != nil {
			ab = r.(*memsim.Aborted)
		}
	}()
	for i, o := range ops {
		if i == disarm {
			h.SetAbortCheck(0, nil)
		}
		o.apply(h)
	}
	return nil
}

// TestAbortExactness pins early abort to the probe: a check polled every
// `every` probes that fires on its k-th poll stops the simulation with
// exactly the reference model's counts and cycles just before probe
// k*every (counted from when the check was armed) — whether the check
// was armed at the start or mid-stream. A check disarmed before its
// firing poll stops nothing, and the run matches the reference's.
func TestAbortExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := refStream(rng, 20000)
	odd := memsim.DefaultConfig()
	odd.L1 = memsim.CacheGeometry{SizeBytes: 32 * 4 * 24, LineBytes: 32, Assoc: 4}
	odd.L2 = memsim.CacheGeometry{SizeBytes: 32 * 8 * 96, LineBytes: 32, Assoc: 8}
	for _, cfg := range []memsim.Config{memsim.DefaultConfig(), odd} {
		for _, every := range []uint64{1, 3, 64, 4096} {
			for _, k := range []int{1, 2, 5} {
				for _, arm := range []int{0, 7001} {
					name := fmt.Sprintf("%s/every=%d/k=%d/arm=%d", cfgName(cfg), every, k, arm)
					wantCounts, wantCycles, ok := refAbortState(cfg, ops, arm, uint64(k)*every)
					if !ok {
						t.Fatalf("%s: stream too short for the firing poll", name)
					}
					h := memsim.New(cfg)
					for _, o := range ops[:arm] {
						o.apply(h)
					}
					polls := 0
					h.SetAbortCheck(every, func() bool { polls++; return polls == k })
					ab := runAborting(h, ops[arm:], -1)
					if ab == nil {
						t.Fatalf("%s: check never fired", name)
					}
					if polls != k || ab.Counts != wantCounts || ab.Cycles != wantCycles {
						t.Fatalf("%s: aborted after %d polls with %+v cycles %d, want %d polls, %+v cycles %d",
							name, polls, ab.Counts, ab.Cycles, k, wantCounts, wantCycles)
					}
				}

				// Disarmed mid-stream, before the event holding the firing
				// poll's probe; the polls before it still happen.
				disarm, before := 0, uint64(0)
				for ; disarm < len(ops); disarm++ {
					p := probesOf(cfg, ops[disarm])
					if before+p >= uint64(k)*every {
						break
					}
					before += p
				}
				wantPolls := int(before / every)
				h, ref := memsim.New(cfg), newRefHierarchy(cfg)
				polls := 0
				h.SetAbortCheck(every, func() bool { polls++; return polls == k })
				if ab := runAborting(h, ops, disarm); ab != nil {
					t.Fatalf("%s every=%d k=%d: disarmed check still fired after %d polls", cfgName(cfg), every, k, polls)
				}
				for _, o := range ops {
					o.applyRef(ref)
				}
				if polls != wantPolls || h.Counts() != ref.counts || h.Cycles() != ref.cycles {
					t.Fatalf("%s every=%d k=%d disarmed: %d polls, %+v cycles %d; want %d polls, %+v cycles %d",
						cfgName(cfg), every, k, polls, h.Counts(), h.Cycles(), wantPolls, ref.counts, ref.cycles)
				}
			}
		}
	}
}

// probesOf returns the number of lines the reference model probes for o.
func probesOf(cfg memsim.Config, o refOp) uint64 {
	if o.isOp || o.size == 0 || uint64(o.addr)+uint64(o.size) > 1<<32 {
		return 0
	}
	lb := cfg.L1.LineBytes
	return uint64((o.addr+o.size-1)/lb-o.addr/lb) + 1
}
