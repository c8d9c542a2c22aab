package astream_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/route"
	"repro/internal/astream"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
)

// The capture/replay cost model on a real workload: one Route execution
// recorded once, then evaluated under other platform configurations by
// replay. The interesting ratios are capture overhead vs a plain live
// run, single replay vs live, and the marginal cost of each extra
// configuration in a multi-config pass.

const benchPackets = 2000

func routeTrace(b *testing.B) *trace.Trace {
	b.Helper()
	a := route.App{}
	tr, err := trace.Builtin(a.TraceNames()[0], benchPackets)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func runRoute(b *testing.B, p *platform.Platform, tr *trace.Trace) {
	b.Helper()
	a := route.App{}
	if _, err := a.Run(tr, p, apps.Original(a), a.DefaultKnobs(), nil); err != nil {
		b.Fatal(err)
	}
}

func captureRoute(b *testing.B, tr *trace.Trace) *astream.Stream {
	b.Helper()
	p := platform.New(memsim.DefaultConfig())
	rec := astream.NewRecorder()
	p.Capture(rec)
	runRoute(b, p, tr)
	p.EndCapture()
	return rec.Finish(false)
}

func sweepConfigs() []memsim.Config {
	base := memsim.DefaultConfig()
	out := make([]memsim.Config, 4)
	for i := range out {
		c := base
		c.L1.SizeBytes = 4 << (10 + i)
		c.L2.SizeBytes = 64 << (10 + i)
		out[i] = c
	}
	return out
}

func BenchmarkCaptureRoute(b *testing.B) {
	tr := routeTrace(b)
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runRoute(b, platform.New(memsim.DefaultConfig()), tr)
		}
	})
	b.Run("capture", func(b *testing.B) {
		var bytes, events int64
		for i := 0; i < b.N; i++ {
			s := captureRoute(b, tr)
			bytes, events = int64(s.SizeBytes()), int64(s.NumEvents)
		}
		b.ReportMetric(float64(bytes), "stream-B")
		b.ReportMetric(float64(events), "events")
	})
	s := captureRoute(b, tr)
	b.Run("replay-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := astream.Replay(s, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	cfgs := sweepConfigs()
	b.Run("replay-multi-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := astream.Replay(s, cfgs, astream.ReplayOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReplaySteadyStateAllocs asserts the replay hot path recycles its
// working set: after a warm-up replay has populated the scratch pool,
// further replays of the same configuration must not allocate — the
// batch arrays and the LineSim tag stores come from the pool, with a
// geometry-matched simulator Reset instead of rebuilt.
func TestReplaySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled kernels at random by design")
	}
	p := platform.New(memsim.DefaultConfig())
	rec := astream.NewRecorder()
	p.Capture(rec)
	a := route.App{}
	tr, err := trace.Builtin(a.TraceNames()[0], 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(tr, p, apps.Original(a), a.DefaultKnobs(), nil); err != nil {
		t.Fatal(err)
	}
	p.EndCapture()
	s := rec.Finish(false)

	cfg := memsim.DefaultConfig()
	if _, _, err := astream.Replay(s, []memsim.Config{cfg}, astream.ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := astream.Replay(s, []memsim.Config{cfg}, astream.ReplayOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	// The pool is shared across goroutines, so tolerate a stray refill;
	// steady state is zero.
	if allocs > 2 {
		t.Errorf("steady-state Replay allocates %.1f objects/op, want ~0", allocs)
	}
}
