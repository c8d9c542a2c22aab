package explore

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/drr"
)

// FuzzResolveOptions drives NewEngine's option resolution over the
// strategy fields. It must never panic, must refuse exactly the
// documented invalid combinations (with the error returned by the first
// step call), and every plan it accepts must keep the derivations:
// BoundPrune implies Arenas, a screening rate implies BoundPrune and
// EarlyAbort, and nothing else is overridden.
func FuzzResolveOptions(f *testing.F) {
	f.Add(false, false, 0.0, false, false, false)
	f.Add(true, false, 0.0, false, false, true)
	f.Add(false, true, 0.0, false, true, false)
	f.Add(false, false, 1.0/64, false, false, true)
	f.Add(false, false, 1.0/64, false, true, true)
	f.Add(false, false, 1.0, true, false, false)
	f.Add(true, true, -0.25, true, false, false)
	f.Add(false, false, math.NaN(), true, false, false)
	f.Add(false, false, 0.0, true, false, true)
	f.Add(false, true, 0.0, true, true, true)
	f.Fuzz(func(t *testing.T, arenas, bound bool, rate float64, abort bool, disable, withCache bool) {
		opts := Options{Arenas: arenas, BoundPrune: bound, SampleRate: rate, EarlyAbort: abort, DisableCache: disable}
		if withCache {
			opts.Cache = NewCache()
		}
		a := drr.App{}
		e := NewEngine(a, opts)
		invalid := math.IsNaN(rate) || rate < 0 || rate >= 1 ||
			disable && (bound || rate > 0)
		if invalid != (e.Err() != nil) {
			t.Fatalf("%+v: Err() = %v, want an error: %v", opts, e.Err(), invalid)
		}
		if invalid {
			ref := Configs(a)[0]
			if _, err := e.Step1(context.Background(), ref); !errors.Is(err, e.Err()) {
				t.Fatalf("Step1 returned %v, want %v", err, e.Err())
			}
			if _, err := e.Simulate(context.Background(), ref, apps.Original(a)); !errors.Is(err, e.Err()) {
				t.Fatalf("Simulate returned %v, want %v", err, e.Err())
			}
			return
		}
		screen := rate > 0
		p := e.Options()
		if p.BoundPrune && !p.Arenas {
			t.Fatalf("%+v: plan %+v bound-prunes off the arena model", opts, p)
		}
		if screen && !(p.BoundPrune && p.EarlyAbort) {
			t.Fatalf("%+v: screening plan %+v lacks BoundPrune or EarlyAbort", opts, p)
		}
		if p.Arenas != (arenas || bound || screen) || p.BoundPrune != (bound || screen) || p.EarlyAbort != (abort || screen) ||
			p.SampleRate != rate || p.DisableCache != disable || p.Cache != opts.Cache {
			t.Fatalf("%+v resolved to %+v: an option was overridden", opts, p)
		}
		if (e.cache == nil) != disable || withCache && !disable && e.cache != opts.Cache {
			t.Fatalf("%+v: engine cache %p, supplied %p", opts, e.cache, opts.Cache)
		}
		if e.composing() != (p.Arenas && !disable) || (e.sampleShift != 0) != screen {
			t.Fatalf("%+v: composing %v, sample shift %d", opts, e.composing(), e.sampleShift)
		}
		if !strings.HasPrefix(e.exploreCtx, "prune=0 k=2") {
			t.Fatalf("exploration context %q lost its prefix", e.exploreCtx)
		}
	})
}
