package explore

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
)

// otherPlatform is a platform unlike the default one, so a warm engine
// on it composes from the lanes instead of hitting cached results.
func otherPlatform() memsim.Config {
	pc := memsim.DefaultConfig()
	pc.L1.SizeBytes = 16 << 10
	return pc
}

// TestLaneFormsReplayIdentically pins that every path a lane takes into
// a cache composes the same replay: for each application, random
// combinations of a cold arena Step1's lanes replay to bit-identical
// Costs from the lanes as captured, from the lanes passed through
// SaveFile and LoadFile, and from the lanes passed through ExportDelta
// and MergeDelta — the latter two decoded on first use.
func TestLaneFormsReplayIdentically(t *testing.T) {
	platforms := []memsim.Config{memsim.DefaultConfig(), otherPlatform()}
	for _, a := range append(netapps.All(), netapps.Extensions()...) {
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			opts := Options{TracePackets: 200, Arenas: true}
			cold := NewEngine(a, opts)
			ref := Configs(a)[0]
			if _, err := cold.Step1(context.Background(), ref); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "lanes.cache")
			if err := cold.Cache().SaveFile(path, true); err != nil {
				t.Fatal(err)
			}
			loaded, merged := NewCache(), NewCache()
			if _, err := loaded.LoadFile(path); err != nil {
				t.Fatal(err)
			}
			merged.MergeDelta(cold.Cache().ExportDelta(NewDeltaCursor()))
			if n := decodedLanes(loaded) + decodedLanes(merged); n != 0 {
				t.Fatalf("%d lanes decoded by loading or merging alone", n)
			}
			engines := []*Engine{cold}
			for _, c := range []*Cache{loaded, merged} {
				o := opts
				o.Cache = c
				engines = append(engines, NewEngine(a, o))
			}

			// Draw each role's kind among the lanes the cold Step1 captured.
			roles := apps.RoleNames(a)
			ck := cold.keysFor(ref)
			held := make(map[string][]ddt.Kind)
			for _, r := range roles {
				for _, k := range ddt.AllKinds() {
					if _, ok := cold.Cache().lanes.m[ck.lane(r, k)]; ok {
						held[r] = append(held[r], k)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(len(roles))))
			for trial := 0; trial < 8; trial++ {
				assign := make(apps.Assignment, len(roles))
				for _, r := range roles {
					if len(held[r]) == 0 {
						t.Fatalf("no lane of role %s captured", r)
					}
					assign[r] = held[r][rng.Intn(len(held[r]))]
				}
				var want []astream.Cost
				for i, e := range engines {
					comp, _, ok := e.composition(ref, assign)
					if !ok {
						t.Fatalf("%s: engine %d cannot compose", assign, i)
					}
					got, _, err := astream.Replay(comp, platforms, astream.ReplayOpts{})
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want = got
						continue
					}
					for pi := range got {
						if got[pi] != want[pi] {
							t.Fatalf("%s on platform %d: engine %d replays %+v, captured lanes %+v", assign, pi, i, got[pi], want[pi])
						}
					}
				}
			}
		})
	}
}

// TestStreamBytesChargesResidentForms pins the budget's account of the
// lane store across a whole campaign: a cold arena Step1, a save and a
// load, and a warm Step1 composing on another platform. Loading decodes
// nothing; the warm Step1 decodes what it uses; and afterwards
// StreamBytes is the sum of the retained entries' resident sizes, each
// lane counted once in whichever form it holds (retained checks both).
func TestStreamBytesChargesResidentForms(t *testing.T) {
	a, err := netapps.ByName("IPchains")
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(a, Options{TracePackets: 300, Arenas: true})
	ref := Configs(a)[0]
	if _, err := cold.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	retained(t, cold.Cache())
	path := filepath.Join(t.TempDir(), "lanes.cache")
	if err := cold.Cache().SaveFile(path, true); err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	if _, err := c.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	retained(t, c)
	if n := decodedLanes(c); n != 0 {
		t.Fatalf("loading decoded %d lanes", n)
	}
	pc := otherPlatform()
	warm := NewEngine(a, Options{TracePackets: 300, Arenas: true, Platform: &pc, Cache: c})
	if _, err := warm.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	if warm.Stats().Composed == 0 || decodedLanes(c) == 0 {
		t.Fatalf("warm Step1 composed %d jobs from %d decoded lanes", warm.Stats().Composed, decodedLanes(c))
	}
	retained(t, c)
	var resident int64
	for _, l := range c.lanes.m {
		resident += l.size()
	}
	for _, e := range c.scheds.m {
		resident += int64(e.Sched.SizeBytes()) + e.Ambient.size()
	}
	for _, p := range c.rprofiles.m {
		resident += int64(p.SizeBytes())
	}
	for _, p := range c.sprofiles.m {
		resident += int64(p.SizeBytes())
	}
	for _, e := range c.streams.m {
		resident += int64(e.Stream.SizeBytes())
	}
	if got := c.Stats().StreamBytes; got != resident {
		t.Fatalf("StreamBytes %d, resident forms sum to %d", got, resident)
	}
}

// TestUndecodableLaneIsDropped pins that a held lane which fails to
// decode on first use — a schedule's ambient lane included — leaves the
// cache, charge and all, so the next capture of a combination needing
// it records it afresh instead of composing around it forever.
func TestUndecodableLaneIsDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCache()
	sched, amb, lane := mkComposed(rng, false)
	corrupt := func(l laneEntry) laneEntry {
		s := l.encoded()
		bad := *s
		bad.Accesses++ // counts the events do not back
		return laneEntry{enc: &bad}
	}
	c.scheds.put(c, "s", schedEntry{Sched: sched, Ambient: corrupt(amb)})
	c.lanes.put(c, "l", corrupt(lane))
	c.lanes.put(c, "ok", lane)
	for _, k := range []struct {
		key     string
		ambient bool
	}{{"l", false}, {"s", true}} {
		if _, _, ok := c.decodedLane(k.key, k.ambient); ok {
			t.Fatalf("%q: corrupt lane decoded", k.key)
		}
	}
	retained(t, c)
	if got := c.missingLanes("s", []string{"l", "ok"}); !slices.Equal(got, []bool{true, true, false}) {
		t.Fatalf("after dropping, missing lanes %v, want [true true false]", got)
	}
	if st := c.Stats(); st.Lanes != 1 || st.Schedules != 0 {
		t.Fatalf("kept %d lanes, %d schedules", st.Lanes, st.Schedules)
	}
}
