package astream_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// randEvents produces a deterministic pseudo-random event script with the
// mix a DDT simulation produces: mostly one-word accesses with locality,
// occasional multi-word record accesses, interleaved ops and growing
// footprint snapshots.
func randEvents(rng *rand.Rand, n int) []astream.Event {
	evs := make([]astream.Event, 0, n)
	addr := uint32(0x1000_0000)
	peak := uint64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4: // one-word read nearby
			addr += uint32(rng.Intn(256)) - 128
			evs = append(evs, astream.Event{Kind: astream.EvRead, Addr: addr &^ 3, Size: 4})
		case r < 6: // one-word write
			addr += uint32(rng.Intn(4096)) - 2048
			evs = append(evs, astream.Event{Kind: astream.EvWrite, Addr: addr &^ 3, Size: 4})
		case r < 8: // multi-word record access, possibly unaligned size
			size := uint32(1 + rng.Intn(64))
			evs = append(evs, astream.Event{Kind: astream.EvRead, Addr: addr &^ 7, Size: size})
		case r < 9: // ALU op
			evs = append(evs, astream.Event{Kind: astream.EvOp, N: uint64(1 + rng.Intn(100))})
		default: // footprint growth
			peak += uint64(8 + rng.Intn(512))
			evs = append(evs, astream.Event{Kind: astream.EvPeak, N: peak})
		}
	}
	return evs
}

// record drives the event script through a live Hierarchy with the
// recorder attached as its event sink — the exact wiring a captured
// simulation uses (peaks arrive via the heap hook, modeled directly).
func record(evs []astream.Event) *astream.Stream {
	rec := astream.NewRecorder()
	h := memsim.New(memsim.DefaultConfig())
	h.SetEventSink(rec)
	for _, ev := range evs {
		switch ev.Kind {
		case astream.EvRead:
			h.Read(ev.Addr, ev.Size)
		case astream.EvWrite:
			h.Write(ev.Addr, ev.Size)
		case astream.EvOp:
			h.Op(ev.N)
		case astream.EvPeak:
			rec.RecordPeak(ev.N)
		}
	}
	h.SetEventSink(nil)
	return rec.Finish(false)
}

// coalesce maps an event script to the form capture encodes: op cycles
// accumulate until the next access (where they surface as one op event
// before it, passing any intervening peaks) or the end of the stream;
// zero-size accesses and non-growing peaks are dropped. The reordering
// of ops across peaks is unobservable in cost space — every snapshot the
// simulator takes happens on an access.
func coalesce(evs []astream.Event) []astream.Event {
	var out []astream.Event
	var pending uint64
	peak := uint64(0)
	for _, ev := range evs {
		switch ev.Kind {
		case astream.EvOp:
			pending += ev.N
		case astream.EvPeak:
			if ev.N <= peak {
				continue
			}
			peak = ev.N
			out = append(out, ev)
		case astream.EvRead, astream.EvWrite:
			if ev.Size == 0 {
				continue
			}
			if pending != 0 {
				out = append(out, astream.Event{Kind: astream.EvOp, N: pending})
				pending = 0
			}
			out = append(out, ev)
		}
	}
	if pending != 0 {
		out = append(out, astream.Event{Kind: astream.EvOp, N: pending})
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 20000} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		evs := randEvents(rng, n)
		s := record(evs)
		want := coalesce(evs)
		if got := int(s.NumEvents); got != len(want) {
			t.Fatalf("n=%d: NumEvents = %d, want %d", n, got, len(want))
		}
		var got []astream.Event
		if err := s.ForEach(func(ev astream.Event) bool {
			got = append(got, ev)
			return true
		}); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: decoded %d events, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRoundTripStopsEarly(t *testing.T) {
	s := record(randEvents(rand.New(rand.NewSource(1)), 100))
	seen := 0
	if err := s.ForEach(func(astream.Event) bool {
		seen++
		return seen < 5
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("ForEach visited %d events after stop, want 5", seen)
	}
}

// liveCost drives the script through a real Hierarchy and returns its
// totals — the ground truth replay must reproduce exactly.
func liveCost(evs []astream.Event, cfg memsim.Config) (memsim.Counts, uint64, uint64) {
	h := memsim.New(cfg)
	var peak uint64
	for _, ev := range evs {
		switch ev.Kind {
		case astream.EvRead:
			h.Read(ev.Addr, ev.Size)
		case astream.EvWrite:
			h.Write(ev.Addr, ev.Size)
		case astream.EvOp:
			h.Op(ev.N)
		case astream.EvPeak:
			if ev.N > peak {
				peak = ev.N
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
	rec.RecordAccess(false, 0x1000, 4, 0)
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
