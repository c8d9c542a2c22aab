// Package astream captures and replays the word-access stream of a DDT
// simulation — the capture-once / replay-many seam that makes multi-
// platform exploration cheap.
//
// The stream an application drives the memory hierarchy with is
// platform-invariant: virtual-heap addresses depend only on the
// deterministic allocator, and the sequence of container operations
// depends only on (application, trace, packets, knobs, DDT assignment).
// Nothing the application does consults cache state. Recording that
// stream once therefore lets any number of memory-hierarchy
// configurations be evaluated by replay — the classic trace-driven-
// simulation speedup — with counts, cycles and energy that are exactly
// what a live execution on that configuration would produce.
//
// The encoding is built for multi-million-event traces: events are
// delta/varint-encoded (addresses as zigzag deltas from the previous
// access, 4-byte accesses in a dedicated compact form, consecutive ALU
// ops coalesced) into 64 KiB chunks, so recording never reallocates
// large buffers and a stream costs a few bytes per event; Finish trims
// the last chunk to its length, so a stream retains what it is charged.
// One decoder reads the encoding back, wherever it was written: replay
// of a whole-run stream and SubStream.Unpack of a serialized lane run
// the same decode loop under the same checks.
//
// Beyond whole-run streams, the package implements compositional
// capture (see compose.go): one arena-mode run records each container
// role's lane, segmented at its operations, plus the DDT-invariant
// operation schedule, and any DDT combination's stream is synthesized
// by interleaving the lanes at the recorded operation boundaries — the
// seam that collapses a 10^K combination cross-product to ~10·K
// captures. Lanes are captured straight into the struct-of-arrays form
// composed replay reads (UnpackedLane); the chunk encoding is only
// their serialized form (SubStream).
package astream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/memsim"
)

// Event tags of the encoding. An access event has bit 7 set; the low
// bits are flags and the two width bits give the byte length of the
// zigzag address delta, which is stored as raw little-endian bytes —
// decoded with one masked 4-byte load instead of a varint loop, because
// the scattered virtual heap makes multi-byte deltas the common case.
// The payload order is [ops varint if flagOps] [addr delta, widthBits+1
// bytes] [size varint if flagSized]. Folding the ALU cycles accumulated
// since the previous access into the access event (flagOps) halves the
// event count of the typical walk-compare-walk simulation loop.
// Standalone op events only appear when a peak snapshot, a segment end
// or the end of the stream forces a flush; peaks carry the footprint
// high-water mark as a delta (it only grows). Segment terminators only
// appear in a lane's serialized form; the decoder stops at each one, and
// a whole-run stream holding one is refused.
const (
	flagAccess = 1 << 7 // access event marker
	flagWrite  = 1 << 0 // store, not load
	flagSized  = 1 << 1 // size != 4: size varint follows the addr delta
	flagOps    = 1 << 2 // coalesced op cycles precede the addr delta
	widthShift = 3      // bits 3-4: addr-delta byte length minus one

	tagOp   = 1 // cycles varint
	tagPeak = 2 // peak delta varint
	tagSeg  = 3 // segment end: footprint max-delta varint + zigzag end-delta varint
)

// chunkBytes is the size of one encoded chunk. Chunks are sealed with
// slack so no event ever spans two chunks and the encoder's unconditional
// 4-byte delta store never leaves the buffer.
const (
	chunkBytes    = 64 << 10
	chunkSlack    = 24 // > max event (tag + 10B ops + 4B delta + 5B size) + store scribble
	chunkHighMark = chunkBytes - chunkSlack
)

// Stream is one recorded access stream. Its fields are exported for gob
// persistence (the simulation cache saves streams across processes); a
// finished Stream is immutable and safe to replay concurrently. Replay
// is its one reader.
type Stream struct {
	// Chunks hold the delta/varint-encoded events.
	Chunks [][]byte
	// NumEvents counts logical events: accesses, coalesced ops (whether
	// folded into an access or standalone) and peak snapshots.
	NumEvents uint64
	// Accesses counts the read/write events among NumEvents.
	Accesses uint64
	// Peak is the final footprint high-water mark in bytes — the
	// platform-invariant part of the cost vector the heap contributes.
	Peak uint64
	// Partial marks a stream whose capture was stopped early (the run was
	// aborted by the dominance guard). Partial streams must never be
	// replayed across configurations (Replay refuses them with
	// ErrPartial): they prove nothing about how the full run would have
	// behaved.
	Partial bool
}

// SizeBytes returns the encoded size of the stream.
func (s *Stream) SizeBytes() int {
	n := 0
	for _, c := range s.Chunks {
		n += len(c)
	}
	return n
}

// String summarizes the stream for logs.
func (s *Stream) String() string {
	state := "complete"
	if s.Partial {
		state = "partial"
	}
	return fmt.Sprintf("astream.Stream{%d events, %d accesses, %dB encoded, peak %dB, %s}",
		s.NumEvents, s.Accesses, s.SizeBytes(), s.Peak, state)
}

// Recorder encodes an access stream as it happens. It implements
// memsim.EventSink, so attaching it to a Hierarchy (or a whole platform
// via platform.Capture) tees every simulated access — with the ALU ops
// charged since the previous one — into the stream, a batch per call;
// RecordPeak additionally snapshots the heap's footprint high-water
// mark so replays can reconstruct the fourth metric. A Recorder is
// single-simulation, single-goroutine state; call Finish exactly once
// when the run completes (or aborts).
type Recorder struct {
	chunks    [][]byte
	buf       []byte // current chunk, written through w
	w         int
	lastAddr  uint32
	lastPeak  uint64
	pendingOp uint64
	events    uint64
	accesses  uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{buf: make([]byte, chunkBytes)}
}

// grow seals the current chunk and starts a fresh one. A sealed chunk
// fills its buffer to within chunkSlack bytes, so it keeps its backing
// array.
func (r *Recorder) grow() {
	r.chunks = append(r.chunks, r.buf[:r.w:r.w])
	r.buf = make([]byte, chunkBytes)
	r.w = 0
}

// zigzag32 maps a signed 32-bit address delta (mod-2^32 arithmetic) to
// its unsigned payload.
func zigzag32(d int32) uint32 {
	return uint32((d << 1) ^ (d >> 31))
}

// unzigzag32 is the inverse of zigzag32.
func unzigzag32(u uint32) int32 {
	return int32(u>>1) ^ -int32(u&1)
}

// zigzag64/unzigzag64 are the 64-bit pair, used for the signed live-byte
// deltas of segment events.
func zigzag64(d int64) uint64 {
	return uint64((d << 1) ^ (d >> 63))
}

func unzigzag64(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// deltaMasks selects the live bytes of a fixed-width address delta.
var deltaMasks = [4]uint32{0xFF, 0xFFFF, 0xFF_FFFF, 0xFFFF_FFFF}

// putUvarint writes v at buf[w:], returning the new write index. The
// caller guarantees space (chunkSlack covers the largest event).
func putUvarint(buf []byte, w int, v uint64) int {
	for v >= 0x80 {
		buf[w] = byte(v) | 0x80
		v >>= 7
		w++
	}
	buf[w] = byte(v)
	return w + 1
}

// RecordBatch encodes a batch of simulated loads and stores, each with
// the op cycles charged since the previous event (memsim.EventSink).
func (r *Recorder) RecordBatch(b memsim.Batch) {
	for i, addr := range b.Addr {
		r.record(b.Write[i], addr, b.Size[i], b.Ops[i])
	}
}

// record encodes one load or store plus the op cycles charged since the
// previous event.
func (r *Recorder) record(write bool, addr, size uint32, ops uint64) {
	if r.pendingOp != 0 {
		ops += r.pendingOp
		r.pendingOp = 0
	}
	if size == 0 {
		// A zero-size access is a no-op in the hierarchy; its ops carry
		// over to the next event.
		r.pendingOp = ops
		return
	}
	if r.w >= chunkHighMark {
		r.grow()
	}
	buf, w := r.buf, r.w
	tag := byte(flagAccess)
	if write {
		tag |= flagWrite
	}
	events := uint64(1)
	if size != 4 {
		tag |= flagSized
	}
	delta := zigzag32(int32(addr - r.lastAddr))
	r.lastAddr = addr
	width := (bits.Len32(delta|1) + 7) >> 3 // 1..4 bytes
	tag |= byte(width-1) << widthShift
	if ops != 0 {
		buf[w] = tag | flagOps
		w = putUvarint(buf, w+1, ops)
		events = 2
	} else {
		buf[w] = tag
		w++
	}
	// One unconditional 4-byte store; only `width` bytes are live, the
	// rest is chunk slack the next event overwrites.
	binary.LittleEndian.PutUint32(buf[w:], delta)
	w += width
	if tag&flagSized != 0 {
		w = putUvarint(buf, w, uint64(size))
	}
	r.w = w
	r.events += events
	r.accesses++
}

// RecordOps accumulates op cycles with no following access
// (memsim.EventSink); they fold into the next event or flush at Finish.
func (r *Recorder) RecordOps(n uint64) { r.pendingOp += n }

// flushOp emits a standalone op event — only a peak snapshot or the end
// of the stream forces one; ops before an access fold into it.
func (r *Recorder) flushOp() {
	if r.w >= chunkHighMark {
		r.grow()
	}
	r.buf[r.w] = tagOp
	r.w = putUvarint(r.buf, r.w+1, r.pendingOp)
	r.pendingOp = 0
	r.events++
}

// RecordPeak snapshots the heap footprint high-water mark. Calls with a
// non-growing peak are ignored; wire it to vheap's peak hook, which only
// fires on growth.
func (r *Recorder) RecordPeak(peak uint64) {
	if peak <= r.lastPeak {
		return
	}
	if r.pendingOp != 0 {
		r.flushOp()
	}
	if r.w >= chunkHighMark {
		r.grow()
	}
	r.buf[r.w] = tagPeak
	r.w = putUvarint(r.buf, r.w+1, peak-r.lastPeak)
	r.lastPeak = peak
	r.events++
}

// recordSeg seals one lane segment: pending ops are flushed into the
// segment, then a tagSeg event records the segment's footprint deltas
// (high-water mark and net change of the owning arena's live bytes,
// relative to the segment start). Only a lane's serialized form
// (UnpackedLane.Encode) carries segments; plain streams never contain
// tagSeg.
func (r *Recorder) recordSeg(maxDelta uint64, endDelta int64) {
	if r.pendingOp != 0 {
		r.flushOp()
	}
	if r.w >= chunkHighMark {
		r.grow()
	}
	r.buf[r.w] = tagSeg
	w := putUvarint(r.buf, r.w+1, maxDelta)
	r.w = putUvarint(r.buf, w, zigzag64(endDelta))
	r.events++
}

// Finish seals the stream. partial marks a capture that was cut short by
// an aborted run; such streams are never replayed. The recorder must not
// be used afterwards.
func (r *Recorder) Finish(partial bool) *Stream {
	if r.pendingOp != 0 {
		r.flushOp()
	}
	chunks := r.chunks
	if r.w > 0 {
		// A copy, not a reslice: the last chunk is often a few hundred
		// bytes of a 64 KiB buffer, and SizeBytes charges only those.
		last := make([]byte, r.w)
		copy(last, r.buf)
		chunks = append(chunks, last)
	}
	r.chunks, r.buf = nil, nil
	return &Stream{
		Chunks:    chunks,
		NumEvents: r.events,
		Accesses:  r.accesses,
		Peak:      r.lastPeak,
		Partial:   partial,
	}
}

// batchEvents is the number of accesses a stream replay decodes per
// call: large enough to amortize decode dispatch, small enough that the
// batch arrays stay in the host cache while K platform models loop over
// them. It is the live Hierarchy's batch, since guarded replays poll
// their guard once per full batch as guarded live runs do.
const batchEvents = memsim.BatchAccesses

// decoder is the one reader of the event encoding. Stream replay decodes
// a whole-run stream through it batchEvents accesses at a time, and
// SubStream.Unpack decodes a lane through it one segment at a time. It
// keeps its place in the chunks and the delta state across calls, and
// fills the struct-of-arrays its caller gives it: addresses, sizes and
// write bits (bit i%64 of write[i/64] for access i).
type decoder struct {
	chunks   [][]byte
	ci       int // next chunk index
	buf      []byte
	pos      int
	lastAddr uint32
	peak     uint64 // footprint high-water mark decoded so far

	addr, size []uint32
	write      []uint64
	// n is the access index the next decode starts at; a decode leaves
	// it past the last access it stored.
	n int
	// The platform-invariant aggregates of the events the last decode
	// consumed, and the footprint deltas of the segment terminator that
	// ended it, if seg is set.
	readW, writeW, ops uint64
	seg                bool
	segMax             uint64
	segEnd             int64
}

// decode decodes events into the arrays from access index d.n on. It
// stops right after the access that fills addr, right after a segment
// terminator, or at the end of the chunks. Truncated events, unknown
// tags, and accesses of zero or more than 2^32-1 bytes are refused. The
// recorder never splits an event across chunks, so the inner loop
// decodes one chunk with purely local state.
func (d *decoder) decode() error {
	addr, n := d.addr, d.n
	size := d.size[:len(addr)]
	d.readW, d.writeW, d.ops, d.seg = 0, 0, 0, false
	// Write bits shift into a register word from the top, so after 64
	// accesses the word is in place and is stored; a partial word is
	// shifted down into place at the stop.
	var wword uint64
	if r := n & 63; r != 0 {
		wword = d.write[n>>6] << (64 - r)
	}
chunks:
	for n < len(addr) {
		if d.pos >= len(d.buf) {
			if d.ci >= len(d.chunks) {
				break
			}
			d.buf, d.pos = d.chunks[d.ci], 0
			d.ci++
			continue
		}
		buf, pos, lastAddr := d.buf, d.pos, d.lastAddr
		// Hot path written out inline: the address delta is one masked
		// 4-byte load, the one-byte varint case (ops, sizes) is tested
		// first, and nothing on the way through an event is a call, so
		// the loop state stays in registers.
		for n < len(addr) && pos < len(buf) {
			tag := buf[pos]
			pos++
			var v uint64
			if tag&flagAccess != 0 {
				if tag&flagOps != 0 {
					if pos < len(buf) && buf[pos] < 0x80 {
						v = uint64(buf[pos])
						pos++
					} else if v, pos = uvarintAt(buf, pos); pos < 0 {
						return d.truncated()
					}
					d.ops += v
				}
				widthM1 := int(tag>>widthShift) & 3
				var du uint32
				if pos+4 <= len(buf) {
					du = binary.LittleEndian.Uint32(buf[pos:]) & deltaMasks[widthM1]
				} else {
					if pos+widthM1 >= len(buf) {
						return d.truncated()
					}
					for k := 0; k <= widthM1; k++ {
						du |= uint32(buf[pos+k]) << (8 * k)
					}
				}
				pos += widthM1 + 1
				lastAddr += uint32(unzigzag32(du))
				sz := uint64(4)
				if tag&flagSized != 0 {
					if pos < len(buf) && buf[pos] < 0x80 {
						sz = uint64(buf[pos])
						pos++
					} else if sz, pos = uvarintAt(buf, pos); pos < 0 {
						return d.truncated()
					}
					if sz == 0 || sz > math.MaxUint32 {
						return fmt.Errorf("astream: access of %d bytes in chunk %d", sz, d.ci-1)
					}
				}
				addr[n], size[n] = lastAddr, uint32(sz)
				wword = wword>>1 | uint64(tag&flagWrite)<<63
				n++
				if n&63 == 0 {
					d.write[n>>6-1] = wword
				}
				if wd := (sz + 3) / 4; tag&flagWrite != 0 {
					d.writeW += wd
				} else {
					d.readW += wd
				}
				continue
			}
			switch tag {
			case tagOp:
				if v, pos = uvarintAt(buf, pos); pos < 0 {
					return d.truncated()
				}
				d.ops += v
			case tagPeak:
				if v, pos = uvarintAt(buf, pos); pos < 0 {
					return d.truncated()
				}
				d.peak += v
			case tagSeg:
				var endU uint64
				if v, pos = uvarintAt(buf, pos); pos < 0 {
					return d.truncated()
				}
				if endU, pos = uvarintAt(buf, pos); pos < 0 {
					return d.truncated()
				}
				d.seg, d.segMax, d.segEnd = true, v, unzigzag64(endU)
				d.pos, d.lastAddr = pos, lastAddr
				break chunks
			default:
				return fmt.Errorf("astream: unknown event tag %d in chunk %d", tag, d.ci-1)
			}
		}
		d.pos, d.lastAddr = pos, lastAddr
	}
	if r := n & 63; r != 0 {
		d.write[n>>6] = wword >> (64 - r)
	}
	d.n = n
	return nil
}

// uvarintAt decodes the varint at buf[pos:] and returns the position
// past it; a negative position signals a truncated or overlong varint.
// It is small enough to inline, so the decode loop calls nothing on its
// way through an event.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	var x uint64
	for s := uint(0); pos < len(buf); s += 7 {
		b := buf[pos]
		pos++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1 // overflows 64 bits
			}
			return x | uint64(b)<<s, pos
		}
		if s == 63 {
			return 0, -1 // longer than binary.MaxVarintLen64
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// truncated reports an event cut off by the end of the current chunk.
func (d *decoder) truncated() error {
	return fmt.Errorf("astream: truncated event in chunk %d", d.ci-1)
}
