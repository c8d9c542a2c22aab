package astream_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// evKind is the kind of one scripted simulation event.
type evKind uint8

const (
	evRead evKind = iota
	evWrite
	evOp
	evPeak
)

// event is one step of a test script: an access of size bytes at addr,
// n op cycles, or a footprint high-water mark of n bytes.
type event struct {
	kind       evKind
	addr, size uint32
	n          uint64
}

// randEvents produces a deterministic pseudo-random event script with the
// mix a DDT simulation produces: mostly one-word accesses with locality,
// occasional multi-word record accesses, interleaved ops and growing
// footprint snapshots.
func randEvents(rng *rand.Rand, n int) []event {
	evs := make([]event, 0, n)
	addr := uint32(0x1000_0000)
	peak := uint64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4: // one-word read nearby
			addr += uint32(rng.Intn(256)) - 128
			evs = append(evs, event{kind: evRead, addr: addr &^ 3, size: 4})
		case r < 6: // one-word write
			addr += uint32(rng.Intn(4096)) - 2048
			evs = append(evs, event{kind: evWrite, addr: addr &^ 3, size: 4})
		case r < 8: // multi-word record access, possibly unaligned size
			size := uint32(1 + rng.Intn(64))
			evs = append(evs, event{kind: evRead, addr: addr &^ 7, size: size})
		case r < 9: // ALU op
			evs = append(evs, event{kind: evOp, n: uint64(1 + rng.Intn(100))})
		default: // footprint growth
			peak += uint64(8 + rng.Intn(512))
			evs = append(evs, event{kind: evPeak, n: peak})
		}
	}
	return evs
}

// recordAccess hands s one access as a Hierarchy would: a batch of one,
// or, for a zero-size access, its op cycles alone.
func recordAccess(s memsim.EventSink, write bool, addr, size uint32, ops uint64) {
	if size == 0 {
		s.RecordOps(ops)
		return
	}
	s.RecordBatch(memsim.Batch{Addr: []uint32{addr}, Size: []uint32{size}, Write: []bool{write}, Ops: []uint64{ops}})
}

// record drives the event script through a live Hierarchy with the
// recorder attached as its event sink — the exact wiring a captured
// simulation uses (peaks arrive via the heap hook, modeled directly,
// after the hierarchy flushes its queued accesses as platform.Capture's
// hook does).
func record(evs []event) *astream.Stream {
	rec := astream.NewRecorder()
	h := memsim.New(memsim.DefaultConfig())
	h.SetEventSink(rec)
	for _, ev := range evs {
		switch ev.kind {
		case evRead:
			h.Read(ev.addr, ev.size)
		case evWrite:
			h.Write(ev.addr, ev.size)
		case evOp:
			h.Op(ev.n)
		case evPeak:
			h.Flush()
			rec.RecordPeak(ev.n)
		}
	}
	h.SetEventSink(nil)
	return rec.Finish(false)
}

// recorded is what decoding a recorded script must yield: the accesses
// in order with their write bits, the words read and written, the op
// cycles, the final footprint peak, and the logical event count.
type recorded struct {
	addr, size                       []uint32
	write                            []bool
	readW, writeW, ops, peak, events uint64
}

// access appends one access of the script to the expectation.
func (r *recorded) access(write bool, addr, size uint32) {
	r.addr, r.size, r.write = append(r.addr, addr), append(r.size, size), append(r.write, write)
	if write {
		r.writeW += uint64(size+3) / 4
	} else {
		r.readW += uint64(size+3) / 4
	}
}

// expect maps a script recorded through a Hierarchy to what its stream
// decodes to. The hierarchy folds op cycles into the next access, so op
// cycles are one event with the access they precede, or one event at the
// end of the stream; non-growing peaks are dropped.
func expect(evs []event) recorded {
	var r recorded
	var pending uint64
	for _, ev := range evs {
		switch ev.kind {
		case evOp:
			pending += ev.n
		case evPeak:
			if ev.n > r.peak {
				r.peak = ev.n
				r.events++
			}
		case evRead, evWrite:
			r.access(ev.kind == evWrite, ev.addr, ev.size)
			r.events++
			if pending != 0 {
				r.ops += pending
				r.events++
				pending = 0
			}
		}
	}
	if pending != 0 {
		r.ops += pending
		r.events++
	}
	return r
}

// asLane reads a whole-run stream as a one-segment lane: its chunks
// followed by a chunk holding one segment terminator. No event spans
// chunks, so Unpack decodes the stream's events as they are.
func asLane(s *astream.Stream) *astream.SubStream {
	r := astream.NewRecorder()
	astream.RecordSeg(r, 0, 0)
	chunks := append(slices.Clip(s.Chunks), r.Finish(false).Chunks...)
	return &astream.SubStream{Stream: astream.Stream{Chunks: chunks, Accesses: s.Accesses}, Segments: 1}
}

// checkDecoded fails unless the stream decodes to want through both of
// the decoder's callers: Unpack, read as one lane segment, yields the
// access arrays, write bits and aggregates, and a replay of a complete
// stream reports the same words, op cycles and peak.
func checkDecoded(t *testing.T, s *astream.Stream, want recorded) {
	t.Helper()
	if s.NumEvents != want.events || s.Accesses != uint64(len(want.addr)) {
		t.Fatalf("stream declares %d events, %d accesses; recorded %d, %d", s.NumEvents, s.Accesses, want.events, len(want.addr))
	}
	u, err := asLane(s).Unpack()
	if err != nil {
		t.Fatalf("decoding the recorded stream: %v", err)
	}
	if !slices.Equal(u.Addr, want.addr) || !slices.Equal(u.Size, want.size) {
		t.Fatalf("decoded accesses differ from the recorded ones")
	}
	for i, w := range want.write {
		if got := u.Write[i>>6]>>(i&63)&1 != 0; got != w {
			t.Fatalf("access %d: decoded write bit %v, recorded %v", i, got, w)
		}
	}
	if u.SegOps[0] != want.ops || uint64(u.SegReadW[0]) != want.readW || uint64(u.SegWriteW[0]) != want.writeW {
		t.Fatalf("decoded ops %d, words %d/%d; recorded %d, %d/%d",
			u.SegOps[0], u.SegReadW[0], u.SegWriteW[0], want.ops, want.readW, want.writeW)
	}
	if s.Partial {
		return // partial streams refuse to replay
	}
	costs, _, err := astream.Replay(s, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{})
	if err != nil {
		t.Fatalf("replaying the recorded stream: %v", err)
	}
	c := costs[0].Counts
	if c.ReadWords != want.readW || c.WriteWords != want.writeW || c.OpCycles != want.ops || costs[0].Peak != want.peak {
		t.Fatalf("replay words %d/%d, ops %d, peak %d; recorded %d/%d, %d, %d",
			c.ReadWords, c.WriteWords, c.OpCycles, costs[0].Peak, want.readW, want.writeW, want.ops, want.peak)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 20000} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		evs := randEvents(rng, n)
		checkDecoded(t, record(evs), expect(evs))
	}
}

// liveCost drives the script through a real Hierarchy and returns its
// totals — the ground truth replay must reproduce exactly.
func liveCost(evs []event, cfg memsim.Config) (memsim.Counts, uint64, uint64) {
	h := memsim.New(cfg)
	var peak uint64
	for _, ev := range evs {
		switch ev.kind {
		case evRead:
			h.Read(ev.addr, ev.size)
		case evWrite:
			h.Write(ev.addr, ev.size)
		case evOp:
			h.Op(ev.n)
		case evPeak:
			if ev.n > peak {
				peak = ev.n
			}
		}
	}
	return h.Counts(), h.Cycles(), peak
}

// testConfigs spans the geometry axes replay must stay exact over: sizes,
// line sizes, associativities, including a non-power-of-two set count.
func testConfigs() []memsim.Config {
	base := memsim.DefaultConfig()
	var out []memsim.Config
	out = append(out, base)
	c := base
	c.L1.SizeBytes, c.L2.SizeBytes = 4<<10, 64<<10
	out = append(out, c)
	c = base
	c.L1.LineBytes, c.L2.LineBytes = 64, 64
	out = append(out, c)
	c = base
	c.L1.Assoc, c.L2.Assoc = 4, 16
	out = append(out, c)
	c = base
	c.L1.SizeBytes = 6 << 10 // 96 sets at 2-way/32B: non-power-of-two indexing
	out = append(out, c)
	return out
}

// replayOne replays src on the single configuration cfg, failing the
// test on error.
func replayOne(t testing.TB, src astream.Source, cfg memsim.Config, guard astream.GuardFunc) astream.Cost {
	t.Helper()
	costs, _, err := astream.Replay(src, []memsim.Config{cfg}, astream.ReplayOpts{Guard: guard})
	if err != nil {
		t.Fatal(err)
	}
	return costs[0]
}

// unwalked returns c without its walk count: a cost served from a
// profile walks nothing, so it equals the replayed cost in every field
// but Walked.
func unwalked(c astream.Cost) astream.Cost {
	c.Walked = 0
	return c
}

func TestReplayMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randEvents(rng, 50000)
	s := record(evs)
	for _, cfg := range testConfigs() {
		wantCounts, wantCycles, wantPeak := liveCost(evs, cfg)
		got := replayOne(t, s, cfg, nil)
		if got.Aborted {
			t.Fatal("unguarded replay reported aborted")
		}
		if got.Counts != wantCounts {
			t.Errorf("cfg %+v: counts = %+v, want %+v", cfg.L1, got.Counts, wantCounts)
		}
		if got.Cycles != wantCycles {
			t.Errorf("cfg %+v: cycles = %d, want %d", cfg.L1, got.Cycles, wantCycles)
		}
		if got.Peak != wantPeak {
			t.Errorf("cfg %+v: peak = %d, want %d", cfg.L1, got.Peak, wantPeak)
		}
	}
}

func TestReplayMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	evs := randEvents(rng, 30000)
	s := record(evs)
	cfgs := testConfigs()
	multi, _, err := astream.Replay(s, cfgs, astream.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != len(cfgs) {
		t.Fatalf("%d costs for %d configs", len(multi), len(cfgs))
	}
	for k, cfg := range cfgs {
		if single := replayOne(t, s, cfg, nil); multi[k] != single {
			t.Errorf("config %d: multi %+v != single %+v", k, multi[k], single)
		}
	}
}

func TestGuardedReplayAborts(t *testing.T) {
	evs := randEvents(rand.New(rand.NewSource(3)), 40000)
	s := record(evs)
	cfg := memsim.DefaultConfig()
	full := replayOne(t, s, cfg, nil)
	limit := full.Cycles / 4
	calls := 0
	got := replayOne(t, s, cfg, func(c astream.Cost) bool {
		calls++
		return c.Cycles > limit
	})
	if calls == 0 {
		t.Fatal("guard never polled")
	}
	if !got.Aborted {
		t.Fatal("guard fired but replay not marked aborted")
	}
	if got.Cycles >= full.Cycles {
		t.Fatalf("aborted replay ran to completion: %d >= %d cycles", got.Cycles, full.Cycles)
	}
	// A guard that never fires must not change the outcome.
	if unguarded := replayOne(t, s, cfg, func(astream.Cost) bool { return false }); unguarded != full {
		t.Fatalf("benign guard changed the outcome: %+v vs %+v", unguarded, full)
	}
}

func TestPartialStreamRefused(t *testing.T) {
	rec := astream.NewRecorder()
	recordAccess(rec, false, 0x1000, 4, 0)
	s := rec.Finish(true)
	if !s.Partial {
		t.Fatal("Finish(true) did not mark stream partial")
	}
	for _, cfgs := range [][]memsim.Config{{memsim.DefaultConfig()}, testConfigs()} {
		if _, _, err := astream.Replay(s, cfgs, astream.ReplayOpts{}); !errors.Is(err, astream.ErrPartial) {
			t.Fatalf("Replay of a partial stream on %d configs: err = %v, want ErrPartial", len(cfgs), err)
		}
	}
}

func TestCorruptStreamErrors(t *testing.T) {
	s := record(randEvents(rand.New(rand.NewSource(5)), 100))
	s.Chunks[0][0] = 0x7F // unknown tag (not an access, not op/peak)
	if _, _, err := astream.Replay(s, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{}); err == nil {
		t.Fatal("corrupt stream replayed without error")
	}
}

func TestEncodingIsCompact(t *testing.T) {
	evs := randEvents(rand.New(rand.NewSource(9)), 100000)
	s := record(evs)
	perEvent := float64(s.SizeBytes()) / float64(s.NumEvents)
	if perEvent > 4.0 {
		t.Errorf("encoding averages %.1f bytes/event; want <= 4", perEvent)
	}
}

// TestStreamAndLaneRefuseAlike pins that whole-run streams and lanes
// share one decoder contract: an access of zero bytes or of 2^33 bytes,
// which no recorder writes, is refused by Replay with the very error
// Unpack gives for the same event inside a lane, and a well-formed sized
// access is accepted by both.
func TestStreamAndLaneRefuseAlike(t *testing.T) {
	// Each event is one sized load at address 1: tag, a one-byte delta,
	// the size varint.
	for _, c := range []struct {
		name string
		ev   []byte
		ok   bool
	}{
		{"zero-size", []byte{0x82, 0x02, 0x00}, false},
		{"2^33-byte", []byte{0x82, 0x02, 0x80, 0x80, 0x80, 0x80, 0x20}, false},
		{"5-byte", []byte{0x82, 0x02, 0x05}, true},
	} {
		st := &astream.Stream{Chunks: [][]byte{c.ev}, NumEvents: 1, Accesses: 1}
		_, _, replayErr := astream.Replay(st, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{})
		_, laneErr := asLane(st).Unpack()
		switch {
		case c.ok:
			if replayErr != nil || laneErr != nil {
				t.Errorf("%s access: Replay err=%v, Unpack err=%v", c.name, replayErr, laneErr)
			}
		case replayErr == nil || laneErr == nil:
			t.Errorf("%s access accepted: Replay err=%v, Unpack err=%v", c.name, replayErr, laneErr)
		case replayErr.Error() != laneErr.Error():
			t.Errorf("%s access refused differently: Replay %q, Unpack %q", c.name, replayErr, laneErr)
		}
	}
}
