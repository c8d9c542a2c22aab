package astream_test

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
)

// laneDiff names the first field in which two lanes differ, or returns
// "" when they agree field for field. Empty and nil arrays agree.
func laneDiff(a, b *astream.UnpackedLane) string {
	switch {
	case a.Role != b.Role || a.Lane != b.Lane:
		return "identity"
	case !slices.Equal(a.Addr, b.Addr):
		return "Addr"
	case !slices.Equal(a.Size, b.Size):
		return "Size"
	case !slices.Equal(a.Write, b.Write):
		return "Write"
	case !slices.Equal(a.SegIdx, b.SegIdx):
		return "SegIdx"
	case !slices.Equal(a.SegOps, b.SegOps):
		return "SegOps"
	case !slices.Equal(a.SegReadW, b.SegReadW):
		return "SegReadW"
	case !slices.Equal(a.SegWriteW, b.SegWriteW):
		return "SegWriteW"
	case !slices.Equal(a.SegMax, b.SegMax):
		return "SegMax"
	case !slices.Equal(a.SegEnd, b.SegEnd):
		return "SegEnd"
	}
	return ""
}

// checkRoundTrip fails unless u survives its serialized form field for
// field.
func checkRoundTrip(t *testing.T, u *astream.UnpackedLane) {
	t.Helper()
	got, err := u.Encode().Unpack()
	if err != nil {
		t.Fatalf("lane %d (%s): decoding its encoding: %v", u.Lane, u.Role, err)
	}
	if d := laneDiff(got, u); d != "" {
		t.Fatalf("lane %d (%s): Unpack(Encode(u)) differs in %s", u.Lane, u.Role, d)
	}
}

// loggedEvent is one event a composed capture routed to a lane: an
// access, standalone op cycles, or the end of a segment.
type loggedEvent struct {
	access, segEnd bool
	write          bool
	addr, size     uint32
	ops            uint64
}

// laneLog forwards a run's events to a ComposedRecorder and logs each
// lane's share, so a test can also encode every lane the way a
// Recorder-based capture writes it: op cycles folded into accesses, a
// terminator per segment.
type laneLog struct {
	cr  *astream.ComposedRecorder
	cur int
	evs [][]loggedEvent
}

func (l *laneLog) RecordBatch(b memsim.Batch) {
	l.cr.RecordBatch(b)
	for i, addr := range b.Addr {
		l.evs[l.cur] = append(l.evs[l.cur], loggedEvent{access: true, write: b.Write[i], addr: addr, size: b.Size[i], ops: b.Ops[i]})
	}
}

func (l *laneLog) RecordOps(n uint64) {
	l.cr.RecordOps(n)
	l.evs[l.cur] = append(l.evs[l.cur], loggedEvent{ops: n})
}

func (l *laneLog) RecordBoundary(lane int) {
	l.cr.RecordBoundary(lane)
	l.evs[l.cur] = append(l.evs[l.cur], loggedEvent{segEnd: true})
	l.cur = lane
}

// recorderEncoding encodes the logged events of lane u through a
// Recorder, taking each segment's footprint deltas from u.
func (l *laneLog) recorderEncoding(u *astream.UnpackedLane) *astream.SubStream {
	r := astream.NewRecorder()
	seg := 0
	for _, ev := range l.evs[u.Lane] {
		switch {
		case ev.access:
			recordAccess(r, ev.write, ev.addr, ev.size, ev.ops)
		case ev.segEnd:
			astream.RecordSeg(r, u.SegMax[seg], u.SegEnd[seg])
			seg++
		default:
			r.RecordOps(ev.ops)
		}
	}
	return &astream.SubStream{Stream: *r.Finish(false), Role: u.Role, Lane: u.Lane, Segments: uint64(seg)}
}

// TestLaneRoundTrip is the serialization property of the lane store,
// over every application's lanes under every library kind: a lane
// captured straight into its decoded form survives Encode and Unpack
// field for field, and the encoding a Recorder-based capture writes
// (the lanes of cache files written before direct capture) decodes to
// the very same lane. A capture that records only some lanes records
// those identically.
func TestLaneRoundTrip(t *testing.T) {
	for _, a := range append(netapps.All(), netapps.Extensions()...) {
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			tr, err := trace.Builtin(a.TraceNames()[0], 300)
			if err != nil {
				t.Fatal(err)
			}
			roles := apps.RoleNames(a)
			odd := make([]bool, len(roles)+1)
			for i := range odd {
				odd[i] = i%2 == 1
			}
			for _, k := range ddt.AllKinds() {
				assign := make(apps.Assignment, len(roles))
				for _, r := range roles {
					assign[r] = k
				}
				p := platform.New(memsim.DefaultConfig())
				p.UseArenas(roles)
				log := &laneLog{cr: p.CaptureComposed(nil), evs: make([][]loggedEvent, len(roles)+1)}
				p.Mem.SetEventSink(log)
				if _, err := a.Run(tr, p, assign, a.DefaultKnobs(), nil); err != nil {
					t.Fatal(err)
				}
				p.EndCapture()
				log.evs[log.cur] = append(log.evs[log.cur], loggedEvent{segEnd: true})
				_, lanes := log.cr.Finish()

				p = platform.New(memsim.DefaultConfig())
				p.UseArenas(roles)
				cr := p.CaptureComposed(odd)
				if _, err := a.Run(tr, p, assign, a.DefaultKnobs(), nil); err != nil {
					t.Fatal(err)
				}
				p.EndCapture()
				_, some := cr.Finish()
				for i, u := range some {
					if (u != nil) != odd[i] || u != nil && laneDiff(u, lanes[i]) != "" {
						t.Fatalf("kind %v, lane %d: recorded only odd lanes, got %+v", k, i, u)
					}
				}

				for _, u := range lanes {
					checkRoundTrip(t, u)
					got, err := log.recorderEncoding(u).Unpack()
					if err != nil {
						t.Fatalf("kind %v, lane %d (%s): decoding the recorder encoding: %v", k, u.Lane, u.Role, err)
					}
					if d := laneDiff(got, u); d != "" {
						t.Fatalf("kind %v, lane %d (%s): recorder encoding decodes to a lane differing in %s", k, u.Lane, u.Role, d)
					}
				}
			}
		})
	}
}

// oneAccessLane is the encoding of a lane holding one 4-byte load at
// address 2 in one segment with no footprint change.
var oneAccessLane = []byte{0x80, 0x04, 0x03, 0x00, 0x00}

// TestUnpackRefusesUnbackedCounts pins that a lane's declared counts,
// which arrive from a cache file or a worker's delta, cannot size an
// allocation the encoded bytes do not back: a one-access lane that
// declares 2^33 accesses is refused with an error, not allocated (which
// used to kill the process with an unrecoverable out-of-memory), and so
// are counts that disagree with the events either way.
func TestUnpackRefusesUnbackedCounts(t *testing.T) {
	lane := func(accesses, segments uint64) *astream.SubStream {
		return &astream.SubStream{Stream: astream.Stream{Chunks: [][]byte{oneAccessLane}, Accesses: accesses}, Segments: segments}
	}
	u, err := lane(1, 1).Unpack()
	if err != nil || len(u.Addr) != 1 || u.Addr[0] != 2 || u.Segments() != 1 {
		t.Fatalf("honest one-access lane: %+v, %v", u, err)
	}
	for _, c := range []struct{ accesses, segments uint64 }{
		{1 << 33, 1}, {1, 1 << 40}, {^uint64(0), ^uint64(0)}, {0, 1}, {2, 1}, {1, 0}, {1, 2},
	} {
		if _, err := lane(c.accesses, c.segments).Unpack(); err == nil {
			t.Errorf("lane declaring %d accesses, %d segments decoded", c.accesses, c.segments)
		}
	}
}

// TestRecorderChunksExact pins that a finished stream retains what
// SizeBytes charges: every chunk's capacity is its length, and a few
// hundred short streams do not keep a 64 KiB recorder buffer each.
func TestRecorderChunksExact(t *testing.T) {
	record := func(n int) *astream.Stream {
		rec := astream.NewRecorder()
		for i := 0; i < n; i++ {
			recordAccess(rec, i%3 == 0, uint32(i*4096+i), 4+uint32(i%5), uint64(i%7))
		}
		return rec.Finish(false)
	}
	for _, n := range []int{1, 100, 20000, 50000} {
		s := record(n)
		for i, c := range s.Chunks {
			if cap(c) != len(c) {
				t.Fatalf("%d accesses: chunk %d has capacity %d for %d bytes", n, i, cap(c), len(c))
			}
		}
	}

	const streams = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]*astream.Stream, streams)
	charged := 0
	for i := range kept {
		kept[i] = record(20)
		charged += kept[i].SizeBytes()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Each stream also pays its headers; 4 KiB apiece is generous and
	// still 16 times less than a retained recorder buffer.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > streams*4<<10 {
		t.Fatalf("%d short streams charged %dB retain %dB of heap", streams, charged, grown)
	}
	runtime.KeepAlive(kept)
}

// FuzzLaneRoundTrip checks the lane serialization from both sides. The
// input, read as one encoded chunk with its declared access and segment
// counts, must decode or be refused — never panic or allocate past what
// its bytes back — and a decoded lane must survive Encode and Unpack
// field for field. Read as a script, the same bytes drive a two-role
// composed capture whose lanes must survive the round trip too.
func FuzzLaneRoundTrip(f *testing.F) {
	f.Add(oneAccessLane, uint64(1), uint64(1))
	f.Add(oneAccessLane, uint64(1)<<33, uint64(1)) // a declared count its bytes cannot back
	// A sized store with folded op cycles, a standalone op event and a
	// terminator with footprint deltas.
	f.Add([]byte{0x87, 0x05, 0x04, 0x03, 0x01, 0x02, 0x03, 0x07, 0x03}, uint64(1), uint64(1))
	f.Add([]byte{0x9b, 0xff, 0xff, 0x01, 0x08, 0x03, 0x10, 0x20}, uint64(1), uint64(1))
	f.Add(slices.Repeat([]byte{0x40, 0x10, 0x20, 0x00, 0x00, 0x08, 0x05, 0x03, 0x11, 0x00, 0x00, 0x00, 0x00, 0x02}, 32), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, accesses, segments uint64) {
		s := &astream.SubStream{Stream: astream.Stream{Chunks: [][]byte{data}, Accesses: accesses}, Segments: segments, Role: "r", Lane: 1}
		if u, err := s.Unpack(); err == nil {
			checkRoundTrip(t, u)
		}

		cr := astream.NewComposedRecorder([]string{"a", "b"}, []astream.LaneMeter{&scriptMeter{}, &scriptMeter{}, &scriptMeter{}}, nil)
		var addr uint32
		for i := 0; i+7 <= len(data); i += 7 {
			op := data[i]
			delta := binary.LittleEndian.Uint32(data[i+1 : i+5])
			switch op % 5 {
			case 0, 1:
				addr += delta
				recordAccess(cr, op%5 == 1, addr, uint32(data[i+5])%12, uint64(data[i+6]))
			case 2:
				cr.RecordOps(uint64(delta))
			default:
				cr.RecordBoundary(int(data[i+5]) % 3)
			}
		}
		_, lanes := cr.Finish()
		for _, u := range lanes {
			checkRoundTrip(t, u)
		}
	})
}

// scriptMeter is a LaneMeter whose footprint deltas vary from segment to
// segment, so scripted captures carry nonzero, signed deltas.
type scriptMeter struct{ n uint64 }

func (m *scriptMeter) BeginSegment() { m.n++ }

func (m *scriptMeter) SegmentStats() (uint64, int64) {
	return m.n * 48, int64(m.n%5) - 2
}
