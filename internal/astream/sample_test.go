package astream_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The sampled-replay error-bound property (stream level): for every
// case-study application with a random DDT combination, replaying the
// captured stream at sample rate R in {1/8, 1/64} across all default
// sweep platforms yields (a) exactly the invariant counters of the
// exact replay, (b) hit/miss estimates that sum to the exact probe
// count, and (c) estimates inside the profile's own reported
// confidence interval at the expected rate; and R = 1 (shift 0) is
// bit-identical to the exact kernel because it IS the exact kernel —
// the same code path, not a parallel implementation.

const samplePackets = 400

func sampleAbsDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ciFor finds the family profile covering cfg and returns its relative
// confidence interval (0 means no covering profile).
func ciFor(profs []*memsim.ReuseProfile, cfg memsim.Config) (float64, bool) {
	for _, p := range profs {
		if _, ok := astream.CostFromProfile(p, cfg); ok {
			return p.RelCI(cfg), true
		}
	}
	return 0, false
}

func TestSampledReplayAllAppsWithinCI(t *testing.T) {
	pts := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(pts))
	for i, pp := range pts {
		cfgs[i] = pp.Config
	}

	var within, total int
	for ai, a := range netapps.All() {
		rng := rand.New(rand.NewSource(int64(301 + ai)))
		assign := make(apps.Assignment)
		for _, r := range a.Roles() {
			assign[r.Name] = ddt.Kind(rng.Intn(ddt.NumKinds))
		}
		tr, err := trace.Builtin(a.TraceNames()[0], samplePackets)
		if err != nil {
			t.Fatal(err)
		}
		pc := platform.New(memsim.DefaultConfig())
		rec := astream.NewRecorder()
		pc.Capture(rec)
		if _, err := a.Run(tr, pc, assign, a.DefaultKnobs(), nil); err != nil {
			t.Fatal(err)
		}
		pc.EndCapture()
		st := rec.Finish(false)

		exact, exactProfs, err := astream.Replay(st, cfgs, astream.ReplayOpts{Profile: true})
		if err != nil {
			t.Fatal(err)
		}

		// R = 1: a sampled pass at shift 0 must be bit-identical to the
		// exact one, profiles included.
		zero, zeroProfs, err := astream.Replay(st, cfgs, astream.ReplayOpts{Profile: true, SampleShift: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact, zero) {
			t.Fatalf("%s: shift-0 costs diverge from exact", a.Name())
		}
		if !reflect.DeepEqual(exactProfs, zeroProfs) {
			t.Fatalf("%s: shift-0 profiles diverge from exact", a.Name())
		}

		for _, shift := range []uint32{3, 6} { // R = 1/8, 1/64
			costs, profs, err := astream.Replay(st, cfgs, astream.ReplayOpts{Profile: true, SampleShift: shift})
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				want, got := exact[i], costs[i]
				// Invariant counters and footprint never drift.
				if got.Counts.ReadWords != want.Counts.ReadWords ||
					got.Counts.WriteWords != want.Counts.WriteWords ||
					got.Counts.OpCycles != want.Counts.OpCycles ||
					got.Peak != want.Peak {
					t.Fatalf("%s shift %d %s: invariant counters drifted:\nexact   %+v\nsampled %+v",
						a.Name(), shift, pts[i].Name, want, got)
				}
				// Estimates are clamped to sum to the exact probe count.
				probes := want.Counts.L1Hits + want.Counts.L2Hits + want.Counts.DRAMFills
				if s := got.Counts.L1Hits + got.Counts.L2Hits + got.Counts.DRAMFills; s != probes {
					t.Fatalf("%s shift %d %s: estimates sum to %d, want %d",
						a.Name(), shift, pts[i].Name, s, probes)
				}
				ci, ok := ciFor(profs, cfg)
				if !ok {
					t.Fatalf("%s shift %d %s: no profile covers the platform", a.Name(), shift, pts[i].Name)
				}
				if ci <= 0 || ci > 1 {
					t.Fatalf("%s shift %d %s: CI %g out of range", a.Name(), shift, pts[i].Name, ci)
				}
				tol := ci * float64(probes)
				for name, pair := range map[string][2]uint64{
					"L1Hits":    {got.Counts.L1Hits, want.Counts.L1Hits},
					"L2Hits":    {got.Counts.L2Hits, want.Counts.L2Hits},
					"DRAMFills": {got.Counts.DRAMFills, want.Counts.DRAMFills},
				} {
					diff := sampleAbsDiff(pair[0], pair[1])
					total++
					if float64(diff) <= tol {
						within++
					} else if float64(diff) > 3*tol {
						t.Errorf("%s shift %d %s %s: |%d-%d| = %d beyond 3x CI %g",
							a.Name(), shift, pts[i].Name, name, pair[0], pair[1], diff, tol)
					}
				}
			}
		}
	}
	if rate := float64(within) / float64(total); rate < 0.85 {
		t.Errorf("only %.0f%% of %d estimates within their CI, want >= 85%%", 100*rate, total)
	}
}

// TestSampledComposedReplay pins the composed (arena) sampled path: at
// shift 0 the sampled pass reproduces the exact composed replay
// bit-for-bit; at R < 1 the invariant counters and ComposedPeak stay
// exact while the estimates land within the reported interval; guarded
// replay refuses sampling outright (a sampled partial cost is not a
// sound abort bound).
func TestSampledComposedReplay(t *testing.T) {
	const seed, n = 17, 700
	sched, lanes := captureTwoRole(t, ddt.DLLAR, seed, n)
	pts := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(pts))
	for i, pp := range pts {
		cfgs[i] = pp.Config
	}
	comp := astream.Composition{Sched: sched, Lanes: lanes}

	exact, exactProfs, err := astream.Replay(comp, cfgs, astream.ReplayOpts{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	zero, zeroProfs, err := astream.Replay(comp, cfgs, astream.ReplayOpts{Profile: true, SampleShift: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, zero) || !reflect.DeepEqual(exactProfs, zeroProfs) {
		t.Fatal("composed shift-0 replay diverges from exact")
	}

	for _, shift := range []uint32{3, 6} {
		costs, profs, err := astream.Replay(comp, cfgs, astream.ReplayOpts{Profile: true, SampleShift: shift})
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			want, got := exact[i], costs[i]
			if got.Counts.ReadWords != want.Counts.ReadWords ||
				got.Counts.WriteWords != want.Counts.WriteWords ||
				got.Counts.OpCycles != want.Counts.OpCycles ||
				got.Peak != want.Peak {
				t.Fatalf("shift %d %s: composed invariants drifted", shift, pts[i].Name)
			}
			probes := want.Counts.L1Hits + want.Counts.L2Hits + want.Counts.DRAMFills
			if s := got.Counts.L1Hits + got.Counts.L2Hits + got.Counts.DRAMFills; s != probes {
				t.Fatalf("shift %d %s: composed estimates sum to %d, want %d", shift, pts[i].Name, s, probes)
			}
			ci, ok := ciFor(profs, cfg)
			if !ok || ci <= 0 || ci > 1 {
				t.Fatalf("shift %d %s: composed CI %g/%v", shift, pts[i].Name, ci, ok)
			}
			tol := ci * float64(probes)
			if diff := sampleAbsDiff(got.Counts.L1Hits, want.Counts.L1Hits); float64(diff) > 3*tol {
				t.Errorf("shift %d %s: composed L1Hits |%d-%d| beyond 3x CI %g",
					shift, pts[i].Name, got.Counts.L1Hits, want.Counts.L1Hits, tol)
			}
		}
	}

	// Guarded composed replay + sampling is a contradiction; it must be
	// refused, not silently ignored.
	guard := func(astream.Cost) bool { return false }
	if _, _, err := astream.Replay(comp, cfgs[:1], astream.ReplayOpts{Guard: guard, SampleShift: 3}); err == nil {
		t.Error("guarded sampled composed replay did not error")
	}
}
