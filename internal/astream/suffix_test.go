package astream_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// syntheticComposition builds a schedule and its lanes from a seed: lane
// l addresses a private 256 MiB region (the arena-disjointness the
// completion bound rests on), each scheduled segment carries a handful
// of accesses mixing hot-set reuse, scattered touches, multi-line and
// zero-size accesses, and the last lane occasionally issues an access
// that wraps the 32-bit space (it probes no lines). Footprint deltas
// keep every lane's live bytes non-negative.
func syntheticComposition(seed int64, nLanes, nTokens int, window uint32) (*astream.Schedule, []*astream.UnpackedLane) {
	rng := rand.New(rand.NewSource(seed))
	sched := &astream.Schedule{Tokens: make([]byte, nTokens)}
	for r := 1; r < nLanes; r++ {
		sched.Roles = append(sched.Roles, string(rune('a'+r)))
	}
	for i := 1; i < nTokens; i++ {
		sched.Tokens[i] = byte(rng.Intn(nLanes))
	}
	sizes := []uint32{0, 1, 2, 4, 4, 4, 4, 8, 16, 40, 100}
	lanes := make([]*astream.UnpackedLane, nLanes)
	live := make([]int64, nLanes)
	for l := range lanes {
		lanes[l] = &astream.UnpackedLane{Lane: l, SegIdx: []uint32{0}}
	}
	for _, tok := range sched.Tokens {
		l := int(tok)
		u := lanes[l]
		base := uint32(l) << 28
		var readW, writeW uint32
		for n := rng.Intn(12); n > 0; n-- {
			addr := base + uint32(rng.Intn(64))*4 // hot set
			if rng.Intn(3) == 0 {
				addr = base + uint32(rng.Int63n(int64(window)))
			}
			size := sizes[rng.Intn(len(sizes))]
			if l == nLanes-1 && rng.Intn(400) == 0 {
				addr, size = 0xFFFF_FFF8, 16
			}
			u.Addr = append(u.Addr, addr)
			u.Size = append(u.Size, size)
			if rng.Intn(2) == 0 {
				readW += (size + 3) / 4
			} else {
				writeW += (size + 3) / 4
			}
		}
		end := rng.Int63n(200) - min(live[l], 100)
		live[l] += end
		u.SegIdx = append(u.SegIdx, uint32(len(u.Addr)))
		u.SegOps = append(u.SegOps, uint64(rng.Intn(30)))
		u.SegReadW = append(u.SegReadW, readW)
		u.SegWriteW = append(u.SegWriteW, writeW)
		u.SegMax = append(u.SegMax, uint64(max(end, 0)+rng.Int63n(64)))
		u.SegEnd = append(u.SegEnd, end)
	}
	return sched, lanes
}

// fuzzPlatforms are bound-eligible platforms from tiny (heavy composed
// interference) to the default hierarchy.
func fuzzPlatforms() []memsim.Config {
	tiny := memsim.DefaultConfig()
	tiny.L1 = memsim.CacheGeometry{SizeBytes: 256, LineBytes: 16, Assoc: 2}
	tiny.L2 = memsim.CacheGeometry{SizeBytes: 1 << 10, LineBytes: 16, Assoc: 4}
	direct := memsim.DefaultConfig()
	direct.L1.Assoc = 1
	wide := memsim.DefaultConfig()
	wide.L1.LineBytes, wide.L2.LineBytes = 64, 64
	wide.L1.Assoc = 4
	return []memsim.Config{tiny, direct, wide, memsim.DefaultConfig()}
}

// FuzzCompletionBoundAdmissible drives the guarded composed replay over
// synthetic lanes and schedules and records every snapshot through a
// guard that never fires: each must lower-bound the exact composed cost
// — cycles, energy, DRAM fills and footprint at most the exact values,
// L1 hits at least the exact count, word and op counts exact — and the
// recording run must finish with the exact cost.
func FuzzCompletionBoundAdmissible(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(900), uint8(4), uint8(0))
	f.Add(int64(2), uint8(3), uint16(1400), uint8(10), uint8(1))
	f.Add(int64(3), uint8(1), uint16(1200), uint8(0), uint8(2))
	f.Add(int64(4), uint8(3), uint16(700), uint8(14), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, lanesSel uint8, tokens uint16, windowSel, cfgSel uint8) {
		nLanes := 1 + int(lanesSel%4)
		nTokens := 1 + int(tokens%1500)
		window := uint32(64) << (windowSel % 16)
		platforms := fuzzPlatforms()
		cfg := platforms[int(cfgSel)%len(platforms)]
		sched, lanes := syntheticComposition(seed, nLanes, nTokens, window)
		comp := astream.Composition{Sched: sched, Lanes: lanes}

		exact := replayOne(t, comp, cfg, nil)
		var snaps []astream.Cost
		guarded := replayOne(t, comp, cfg, func(c astream.Cost) bool {
			snaps = append(snaps, c)
			return false
		})
		if guarded != exact {
			t.Fatalf("a never-firing guard changed the replay: %+v, unguarded %+v", guarded, exact)
		}
		model := energy.CACTILike(cfg)
		energyOf := func(c astream.Cost) float64 {
			return model.Energy(c.Counts, float64(c.Cycles)/cfg.ClockHz)
		}
		for i, c := range snaps {
			switch {
			case c.Cycles > exact.Cycles:
				t.Fatalf("snapshot %d: cycles %d > exact %d", i, c.Cycles, exact.Cycles)
			case energyOf(c) > energyOf(exact):
				t.Fatalf("snapshot %d: energy %v > exact %v", i, energyOf(c), energyOf(exact))
			case c.Counts.DRAMFills > exact.Counts.DRAMFills:
				t.Fatalf("snapshot %d: DRAM fills %d > exact %d", i, c.Counts.DRAMFills, exact.Counts.DRAMFills)
			case c.Peak > exact.Peak:
				t.Fatalf("snapshot %d: peak %d > exact %d", i, c.Peak, exact.Peak)
			case c.Counts.L1Hits < exact.Counts.L1Hits:
				t.Fatalf("snapshot %d: L1 hits %d < exact %d", i, c.Counts.L1Hits, exact.Counts.L1Hits)
			case c.Counts.ReadWords != exact.Counts.ReadWords || c.Counts.WriteWords != exact.Counts.WriteWords ||
				c.Counts.OpCycles != exact.Counts.OpCycles:
				t.Fatalf("snapshot %d: invariants %+v, exact %+v", i, c.Counts, exact.Counts)
			}
		}
	})
}

// TestGuardedReplayConcurrentLanes replays combinations that share
// lanes from several goroutines at once, so the lanes' memoized suffix
// tables are built and read concurrently (run under -race): every
// guarded replay must see the same snapshots as a sequential one.
func TestGuardedReplayConcurrentLanes(t *testing.T) {
	sched, lanes := syntheticComposition(7, 3, 1200, 1<<12)
	cfg := fuzzPlatforms()[0]
	snapshots := func() []astream.Cost {
		var snaps []astream.Cost
		if _, _, err := astream.Replay(astream.Composition{Sched: sched, Lanes: lanes}, []memsim.Config{cfg}, astream.ReplayOpts{Guard: func(c astream.Cost) bool {
			snaps = append(snaps, c)
			return false
		}}); err != nil {
			t.Error(err)
		}
		return snaps
	}
	const workers = 4
	got := make([][]astream.Cost, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = snapshots()
		}()
	}
	wg.Wait()
	want := snapshots()
	if len(want) == 0 {
		t.Fatal("the replay reached no guard poll")
	}
	for w, snaps := range got {
		if !slices.Equal(snaps, want) {
			t.Fatalf("goroutine %d saw %d snapshots differing from the sequential %d", w, len(snaps), len(want))
		}
	}
}

// referenceLaneBound recomputes a lane's bound ingredients at cfg
// without the suffix tables: L1 hits, probes and pipelined words from a
// fresh memsim.Hierarchy fed the lane alone, distinct lines from a
// plain map, and peak, end-live and invariant counts from a direct
// segment walk.
func referenceLaneBound(u *astream.UnpackedLane, cfg memsim.Config) memsim.LaneBound {
	h := memsim.New(cfg)
	lb := memsim.EffectiveLineBytes(cfg)
	seen := make(map[uint32]bool)
	for i, addr := range u.Addr {
		size := u.Size[i]
		h.Read(addr, size)
		if size == 0 || addr+size-1 < addr {
			continue // probes no lines
		}
		for line := addr / lb; line <= (addr+size-1)/lb; line++ {
			seen[line] = true
		}
	}
	c := h.Counts()
	b := memsim.LaneBound{
		Probes:    c.LineProbes(),
		MaxL1Hits: c.L1Hits,
		ColdFills: uint64(len(seen)),
		Pipelined: (h.Cycles() - cfg.CyclesFor(c, 0)) / cfg.PipelinedWord,
	}
	var live int64
	for s := range u.SegOps {
		b.ReadWords += uint64(u.SegReadW[s])
		b.WriteWords += uint64(u.SegWriteW[s])
		b.OpCycles += u.SegOps[s]
		b.Peak = max(b.Peak, uint64(live)+u.SegMax[s])
		live += u.SegEnd[s]
	}
	b.EndLive = uint64(live)
	return b
}

// TestLaneBoundMatchesReference pins astream.LaneBound, read off the
// isolated suffix tables, to referenceLaneBound on every lane an
// all-kind capture of each multi-role application yields, at every
// bound-eligible default platform.
func TestLaneBoundMatchesReference(t *testing.T) {
	var cfgs []memsim.Config
	for _, pp := range sweep.DefaultPlatforms() {
		if memsim.BoundEligible(pp.Config) {
			cfgs = append(cfgs, pp.Config)
		}
	}
	for _, a := range append(netapps.All(), netapps.Extensions()...) {
		roles := apps.RoleNames(a)
		if len(roles) < 2 {
			continue
		}
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			tr, err := trace.Builtin(a.TraceNames()[0], 300)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ddt.AllKinds() {
				p := platform.New(memsim.DefaultConfig())
				p.UseArenas(roles)
				cr := p.CaptureComposed(nil)
				assign := make(apps.Assignment, len(roles))
				for _, r := range roles {
					assign[r] = k
				}
				if _, err := a.Run(tr, p, assign, a.DefaultKnobs(), nil); err != nil {
					t.Fatal(err)
				}
				p.EndCapture()
				_, lanes := cr.Finish()
				for _, u := range lanes {
					for _, cfg := range cfgs {
						if got, want := astream.LaneBound(u, cfg), referenceLaneBound(u, cfg); got != want {
							t.Fatalf("kind %v, lane %d (%s), L1 %+v:\ngot  %+v\nwant %+v", k, u.Lane, u.Role, cfg.L1, got, want)
						}
					}
				}
			}
		})
	}
}

// FuzzLaneBoundMatchesReference pins astream.LaneBound to
// referenceLaneBound on every lane of synthetic compositions, across
// platforms from a tiny hierarchy to 64-byte lines. Each lane is
// queried on every platform in a fuzzed order, so tables sharing a
// line size's first-touch column are built in either order.
func FuzzLaneBoundMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(900), uint8(4), uint8(0))
	f.Add(int64(2), uint8(3), uint16(1400), uint8(10), uint8(1))
	f.Add(int64(3), uint8(0), uint16(5), uint8(0), uint8(2))
	f.Add(int64(4), uint8(3), uint16(700), uint8(14), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, lanesSel uint8, tokens uint16, windowSel, order uint8) {
		nLanes := 1 + int(lanesSel%4)
		nTokens := 1 + int(tokens%1500)
		window := uint32(64) << (windowSel % 16)
		_, lanes := syntheticComposition(seed, nLanes, nTokens, window)
		platforms := fuzzPlatforms()
		for _, u := range lanes {
			for i := range platforms {
				cfg := platforms[(i+int(order))%len(platforms)]
				if got, want := astream.LaneBound(u, cfg), referenceLaneBound(u, cfg); got != want {
					t.Fatalf("lane %d, L1 %+v:\ngot  %+v\nwant %+v", u.Lane, cfg.L1, got, want)
				}
			}
		}
	})
}
