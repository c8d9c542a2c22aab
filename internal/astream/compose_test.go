package astream_test

import (
	"math/rand"
	"testing"

	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
)

// The compositional-capture property at the DDT level: run a fixed
// two-role operation schedule once per library kind (both roles on the
// same kind), capturing per-role sub-streams; then ANY (kindA, kindB)
// combination must replay — by interleaving the role sub-streams at the
// recorded operation boundaries — to exactly the counts, cycles and
// footprint peak of an arena-mode live simulation of that combination.

type composeRec struct {
	Key uint32
	Pad [3]uint32
}

// twoRoleOps drives a deterministic interleaved operation sequence over
// two role-bound lists plus ambient ALU work. Every control decision
// depends only on the rng and logical lengths, never on the DDT kinds —
// the same invariance real applications guarantee.
func twoRoleOps(p *platform.Platform, ka, kb ddt.Kind, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	envA := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
	envB := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
	if a, lane, ok := p.ArenaFor("alpha"); ok {
		envA.Arena, envA.Lane = a, lane
	}
	if b, lane, ok := p.ArenaFor("beta"); ok {
		envB.Arena, envB.Lane = b, lane
	}
	la := ddt.New[composeRec](ka, envA, 16)
	lb := ddt.New[composeRec](kb, envB, 12)
	for i := 0; i < n; i++ {
		p.Mem.Op(uint64(5 + i%7)) // ambient per-iteration work
		switch op := rng.Intn(10); {
		case op < 3 || la.Len() == 0:
			la.Append(composeRec{Key: uint32(i)})
		case op < 5:
			idx := rng.Intn(la.Len())
			v := la.Get(idx)
			v.Key++
			la.Set(idx, v)
		case op < 6:
			la.RemoveAt(rng.Intn(la.Len()))
		case op < 8 || lb.Len() == 0:
			lb.Append(composeRec{Key: uint32(2 * i)})
			if lb.Len() > 40 {
				lb.RemoveAt(0)
			}
		default:
			want := uint32(rng.Intn(n))
			ddt.Find(lb, envB, 2, func(v composeRec) bool { return v.Key == want })
		}
	}
	la.Clear()
}

// captureTwoRole records one all-kind-k run compositionally.
func captureTwoRole(t *testing.T, k ddt.Kind, seed int64, n int) (*astream.Schedule, []*astream.UnpackedLane) {
	t.Helper()
	p := platform.New(memsim.DefaultConfig())
	p.UseArenas([]string{"alpha", "beta"})
	cr := p.CaptureComposed(nil)
	twoRoleOps(p, k, k, seed, n)
	p.EndCapture()
	return cr.Finish()
}

// reloaded passes every lane through its serialized form, as a cache
// file or a worker's delta carries it.
func reloaded(t testing.TB, lanes []*astream.UnpackedLane) []*astream.UnpackedLane {
	t.Helper()
	out := make([]*astream.UnpackedLane, len(lanes))
	for i, u := range lanes {
		var err error
		if out[i], err = u.Encode().Unpack(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestComposedReplayEquivalenceTwoRoles(t *testing.T) {
	const seed, n = 42, 500
	platforms := sweep.DefaultPlatforms()

	// One capture per kind yields both roles' lanes for that kind.
	scheds := make(map[ddt.Kind]*astream.Schedule)
	lanes := make(map[ddt.Kind][]*astream.UnpackedLane)
	for _, k := range ddt.AllKinds() {
		sched, ls := captureTwoRole(t, k, seed, n)
		scheds[k] = sched
		lanes[k] = ls
	}
	// The schedule is kind-invariant: every capture must agree.
	ref := scheds[ddt.AR]
	for _, k := range ddt.AllKinds() {
		if string(scheds[k].Tokens) != string(ref.Tokens) {
			t.Fatalf("kind %v: operation schedule differs from AR's (%d vs %d tokens)",
				k, len(scheds[k].Tokens), len(ref.Tokens))
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		ka := ddt.Kind(rng.Intn(ddt.NumKinds))
		kb := ddt.Kind(rng.Intn(ddt.NumKinds))
		// Ambient lane is kind-invariant; take it from the AR capture.
		combo := []*astream.UnpackedLane{lanes[ddt.AR][0], lanes[ka][1], lanes[kb][2]}
		for _, pp := range platforms {
			live := platform.New(pp.Config)
			live.UseArenas([]string{"alpha", "beta"})
			twoRoleOps(live, ka, kb, seed, n)

			for form, ls := range map[string][]*astream.UnpackedLane{"captured": combo, "reloaded": reloaded(t, combo)} {
				got := replayOne(t, astream.Composition{Sched: ref, Lanes: ls}, pp.Config, nil)
				if got.Counts != live.Mem.Counts() {
					t.Errorf("%s %v+%v on %s: counts %+v != live %+v", form, ka, kb, pp.Name, got.Counts, live.Mem.Counts())
				}
				if got.Cycles != live.Mem.Cycles() {
					t.Errorf("%s %v+%v on %s: cycles %d != live %d", form, ka, kb, pp.Name, got.Cycles, live.Mem.Cycles())
				}
				if got.Peak != live.Heap.PeakLiveBytes() {
					t.Errorf("%s %v+%v on %s: peak %d != live %d", form, ka, kb, pp.Name, got.Peak, live.Heap.PeakLiveBytes())
				}
			}
		}
	}
}
