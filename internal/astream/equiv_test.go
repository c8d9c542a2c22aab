package astream_test

import (
	"math/rand"
	"testing"

	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
)

// The replay-equivalence property: for random DDT operation sequences,
// replaying a captured access stream reproduces the live memsim.Counts,
// cycles and energy EXACTLY — bitwise — for every platform in
// sweep.DefaultPlatforms(). This is the theorem the whole capture-once /
// replay-many design rests on, checked across all ten container kinds,
// both capture-time heap/hierarchy wirings and every default platform
// geometry (sizes, line sizes, associativities).

// ddtOps drives a random but deterministic operation sequence against a
// list of the given kind on p: appends, indexed reads/writes, inserts,
// removals, finds and clears, with op charges like a real application.
func ddtOps(p *platform.Platform, kind ddt.Kind, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	env := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
	type rec struct {
		Key uint32
		Pad [3]uint32
	}
	l := ddt.New[rec](kind, env, 16)
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 4 || l.Len() == 0:
			l.Append(rec{Key: uint32(i)})
		case op < 6:
			idx := rng.Intn(l.Len())
			v := l.Get(idx)
			v.Key++
			l.Set(idx, v)
			env.Op(3)
		case op < 7:
			l.InsertAt(rng.Intn(l.Len()+1), rec{Key: uint32(i)})
		case op < 8:
			l.RemoveAt(rng.Intn(l.Len()))
		case op < 9:
			want := uint32(rng.Intn(n))
			ddt.Find(l, env, 2, func(v rec) bool { return v.Key == want })
		default:
			if rng.Intn(20) == 0 {
				l.Clear()
			} else {
				l.Iterate(func(i int, v rec) bool { env.Op(1); return i < 64 })
			}
		}
	}
}

func TestReplayEquivalenceDDTSweepPlatforms(t *testing.T) {
	platforms := sweep.DefaultPlatforms()
	for _, kind := range ddt.AllKinds() {
		for seed := int64(1); seed <= 3; seed++ {
			// Capture once, on the default platform.
			pc := platform.New(memsim.DefaultConfig())
			rec := astream.NewRecorder()
			pc.Capture(rec)
			ddtOps(pc, kind, seed, 400)
			pc.EndCapture()
			st := rec.Finish(false)
			if st.Partial || st.NumEvents == 0 {
				t.Fatalf("%v seed %d: bad stream %v", kind, seed, st)
			}

			for _, pp := range platforms {
				// Ground truth: the same operation sequence live on pp.
				live := platform.New(pp.Config)
				ddtOps(live, kind, seed, 400)
				wantCounts, wantCycles := live.Mem.Counts(), live.Mem.Cycles()
				wantVec := live.Metrics()

				got := replayOne(t, st, pp.Config, nil)
				if got.Counts != wantCounts {
					t.Errorf("%v seed %d on %s: counts %+v != live %+v", kind, seed, pp.Name, got.Counts, wantCounts)
				}
				if got.Cycles != wantCycles {
					t.Errorf("%v seed %d on %s: cycles %d != live %d", kind, seed, pp.Name, got.Cycles, wantCycles)
				}
				if got.Peak != live.Heap.PeakLiveBytes() {
					t.Errorf("%v seed %d on %s: peak %d != live %d", kind, seed, pp.Name, got.Peak, live.Heap.PeakLiveBytes())
				}
				// Energy and time, assembled exactly as the exploration's
				// replay path assembles them, must be bit-identical.
				model := energy.CACTILike(pp.Config)
				seconds := float64(got.Cycles) / pp.Config.ClockHz
				if e := model.Energy(got.Counts, seconds); e != wantVec.Energy {
					t.Errorf("%v seed %d on %s: energy %v != live %v", kind, seed, pp.Name, e, wantVec.Energy)
				}
				if seconds != wantVec.Time {
					t.Errorf("%v seed %d on %s: time %v != live %v", kind, seed, pp.Name, seconds, wantVec.Time)
				}
			}
		}
	}
}

// TestReplayMultiEquivalenceDDT covers the one-decode/K-configs path on
// a real DDT stream against every default platform at once.
func TestReplayMultiEquivalenceDDT(t *testing.T) {
	pc := platform.New(memsim.DefaultConfig())
	rec := astream.NewRecorder()
	pc.Capture(rec)
	ddtOps(pc, ddt.DLLARO, 99, 1500)
	pc.EndCapture()
	st := rec.Finish(false)

	platforms := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(platforms))
	for i, pp := range platforms {
		cfgs[i] = pp.Config
	}
	multi, _, err := astream.Replay(st, cfgs, astream.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range platforms {
		live := platform.New(pp.Config)
		ddtOps(live, ddt.DLLARO, 99, 1500)
		if multi[i].Counts != live.Mem.Counts() || multi[i].Cycles != live.Mem.Cycles() {
			t.Errorf("%s: multi-replay diverged from live", pp.Name)
		}
	}
}

// TestCaptureDoesNotPerturb pins that attaching a recorder leaves the
// live simulation's own accounting untouched.
func TestCaptureDoesNotPerturb(t *testing.T) {
	bare := platform.New(memsim.DefaultConfig())
	ddtOps(bare, ddt.SLLAR, 7, 800)

	cap := platform.New(memsim.DefaultConfig())
	rec := astream.NewRecorder()
	cap.Capture(rec)
	ddtOps(cap, ddt.SLLAR, 7, 800)
	cap.EndCapture()

	if bare.Mem.Counts() != cap.Mem.Counts() || bare.Mem.Cycles() != cap.Mem.Cycles() {
		t.Fatal("capture perturbed the live simulation accounting")
	}
	if bare.Heap.PeakLiveBytes() != cap.Heap.PeakLiveBytes() {
		t.Fatal("capture perturbed the heap accounting")
	}
}
