package astream_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/astream"
	"repro/internal/energy"
	"repro/internal/memsim"
)

// replaySafely calls Replay, turning a panic into a test failure.
func replaySafely(t *testing.T, src astream.Source, cfgs []memsim.Config, opts astream.ReplayOpts) (costs []astream.Cost, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Replay panicked: %v", r)
		}
	}()
	costs, _, err = astream.Replay(src, cfgs, opts)
	return costs, err
}

// TestReplayContract pins Replay's validation: every invalid
// combination of source and ReplayOpts returns an error and never
// panics, on both source kinds; ComposedPeak shares the composition
// checks.
func TestReplayContract(t *testing.T) {
	stream := record(randEvents(rand.New(rand.NewSource(13)), 5000))
	rec := astream.NewRecorder()
	rec.RecordAccess(false, 0x1000, 4, 0)
	partial := rec.Finish(true)
	sched, lanes := syntheticComposition(5, 3, 400, 1<<10)
	comp := astream.Composition{Sched: sched, Lanes: lanes}

	withNil := append([]*astream.UnpackedLane(nil), lanes...)
	withNil[1] = nil
	outside := &astream.Schedule{Tokens: append(append([]byte(nil), sched.Tokens...), byte(len(lanes))), Roles: sched.Roles}
	overrun := &astream.Schedule{Tokens: append([]byte(nil), sched.Tokens...), Roles: sched.Roles}
	for range lanes[1].Segments() + 1 {
		overrun.Tokens = append(overrun.Tokens, 1)
	}
	badComps := map[string]astream.Composition{
		"no schedule":            {Lanes: lanes},
		"too few lanes":          {Sched: sched, Lanes: lanes[:len(lanes)-1]},
		"nil lane":               {Sched: sched, Lanes: withNil},
		"token outside":          {Sched: outside, Lanes: lanes},
		"segments overrun":       {Sched: overrun, Lanes: lanes},
		"schedule without roles": {Sched: &astream.Schedule{Tokens: sched.Tokens}, Lanes: lanes},
	}

	cfg := memsim.DefaultConfig()
	one, two := []memsim.Config{cfg}, []memsim.Config{cfg, fuzzPlatforms()[0]}
	never := func(astream.Cost) bool { return false }
	type tc struct {
		name string
		src  astream.Source
		cfgs []memsim.Config
		opts astream.ReplayOpts
	}
	var cases []tc
	for _, s := range []struct {
		name string
		src  astream.Source
	}{{"stream", stream}, {"composition", comp}} {
		cases = append(cases,
			tc{s.name + "/guard with no config", s.src, nil, astream.ReplayOpts{Guard: never}},
			tc{s.name + "/guard with two configs", s.src, two, astream.ReplayOpts{Guard: never}},
			tc{s.name + "/guard with sampling", s.src, one, astream.ReplayOpts{Guard: never, SampleShift: 3}},
			tc{s.name + "/guard with profile", s.src, one, astream.ReplayOpts{Guard: never, Profile: true}},
			tc{s.name + "/sample shift too large", s.src, two, astream.ReplayOpts{SampleShift: memsim.MaxSampleShift + 1}},
		)
	}
	cases = append(cases,
		tc{"partial stream", partial, one, astream.ReplayOpts{}},
		tc{"partial stream profiled", partial, two, astream.ReplayOpts{Profile: true}},
		tc{"nil stream", (*astream.Stream)(nil), one, astream.ReplayOpts{}},
		tc{"nil source", nil, one, astream.ReplayOpts{}},
	)
	for name, c := range badComps {
		cases = append(cases,
			tc{"composition/" + name, c, two, astream.ReplayOpts{}},
			tc{"composition/" + name + " guarded", c, one, astream.ReplayOpts{Guard: never}},
			tc{"composition/" + name + " sampled", c, two, astream.ReplayOpts{Profile: true, SampleShift: 2}},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			costs, err := replaySafely(t, c.src, c.cfgs, c.opts)
			if err == nil {
				t.Fatalf("accepted: %d costs", len(costs))
			}
		})
	}
	if _, err := replaySafely(t, partial, one, astream.ReplayOpts{}); !errors.Is(err, astream.ErrPartial) {
		t.Errorf("partial stream: err = %v, want ErrPartial", err)
	}
	for name, c := range badComps {
		if _, err := astream.ComposedPeak(c); err == nil {
			t.Errorf("ComposedPeak accepted composition %q", name)
		}
	}
	// The valid sources themselves pass every check above.
	for _, src := range []astream.Source{stream, comp} {
		if _, err := replaySafely(t, src, one, astream.ReplayOpts{Guard: never}); err != nil {
			t.Errorf("valid guarded replay of %T refused: %v", src, err)
		}
	}
}

// TestGuardedReplayAbortSnapshot stops guarded replays of both source
// kinds at their first, second and third polls, on a platform the
// completion bound applies to and on an inverted-latency one that sees
// the bare partial cost: each stop comes back Aborted with a snapshot
// no objective of which — cycles, energy, word accesses, DRAM fills,
// footprint — exceeds the exact cost.
func TestGuardedReplayAbortSnapshot(t *testing.T) {
	sched, lanes := syntheticComposition(7, 3, 1200, 1<<12)
	sources := map[string]astream.Source{
		"stream":      record(randEvents(rand.New(rand.NewSource(3)), 40000)),
		"composition": astream.Composition{Sched: sched, Lanes: lanes},
	}
	eligible := fuzzPlatforms()[0]
	inverted := eligible
	inverted.L1HitCycles, inverted.L2HitCycles = inverted.L2HitCycles+1, inverted.L1HitCycles
	if !memsim.BoundEligible(eligible) || memsim.BoundEligible(inverted) {
		t.Fatal("test platforms do not straddle memsim.BoundEligible")
	}
	for name, src := range sources {
		for _, cfg := range []memsim.Config{eligible, inverted} {
			model := energy.CACTILike(cfg)
			energyOf := func(c astream.Cost) float64 {
				return model.Energy(c.Counts, float64(c.Cycles)/cfg.ClockHz)
			}
			exact := replayOne(t, src, cfg, nil)
			for stop := 1; stop <= 3; stop++ {
				t.Run(fmt.Sprintf("%s/eligible=%v/poll%d", name, memsim.BoundEligible(cfg), stop), func(t *testing.T) {
					polls := 0
					got := replayOne(t, src, cfg, func(astream.Cost) bool {
						polls++
						return polls == stop
					})
					if !got.Aborted {
						t.Fatalf("guard fired at poll %d but the replay is not Aborted (%d polls)", stop, polls)
					}
					switch {
					case got.Cycles > exact.Cycles:
						t.Errorf("cycles %d > exact %d", got.Cycles, exact.Cycles)
					case energyOf(got) > energyOf(exact):
						t.Errorf("energy %v > exact %v", energyOf(got), energyOf(exact))
					case got.Counts.Accesses() > exact.Counts.Accesses():
						t.Errorf("accesses %d > exact %d", got.Counts.Accesses(), exact.Counts.Accesses())
					case got.Counts.DRAMFills > exact.Counts.DRAMFills:
						t.Errorf("DRAM fills %d > exact %d", got.Counts.DRAMFills, exact.Counts.DRAMFills)
					case got.Peak > exact.Peak:
						t.Errorf("peak %d > exact %d", got.Peak, exact.Peak)
					}
				})
			}
		}
	}
}
