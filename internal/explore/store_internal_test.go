package explore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/memsim"
)

var cacheSink *Cache

// TestNewCacheFootprint pins what building a cache costs: every engine
// builds a private one, and paper-live's setup_s in the campaign
// benchmark is mostly NewEngine (see the FOUND line on setup_s and
// allocator size classes in CHANGES.md). The tiers allocate their maps
// on their first put, and Cache stays inside the 320-byte size class.
func TestNewCacheFootprint(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { cacheSink = NewCache() }); n > 8 {
		t.Fatalf("NewCache makes %v allocations, want <= 8", n)
	}
	if n := unsafe.Sizeof(Cache{}); n > 320 {
		t.Fatalf("unsafe.Sizeof(Cache{}) = %d bytes, want <= 320: growth past the 320-byte size class "+
			"can slow paper-live setup_s (CHANGES.md, FOUND line on setup_s and size classes)", n)
	}
}

// TestTierGetDoesNotAllocate pins the composition hot path: a schedule
// or lane get is a read lock, a map read and a counter add.
func TestTierGetDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCache()
	sched, amb, lane := mkComposed(rng, false)
	c.scheds.put(c, "s", schedEntry{Sched: sched, Ambient: amb})
	c.lanes.put(c, "l", lane)
	n := testing.AllocsPerRun(100, func() {
		c.scheds.get(c, "s")
		c.lanes.get(c, "l")
		c.lanes.get(c, "missing")
	})
	if n != 0 {
		t.Fatalf("tier gets allocate %v times per run", n)
	}
}

// TestZeroBudgetDropsEveryTier pins SetStreamBudget's contract: a
// non-positive budget keeps nothing — schedules and decoded lanes
// included — and admits nothing afterwards.
func TestZeroBudgetDropsEveryTier(t *testing.T) {
	a, err := netapps.ByName("URL")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(a, Options{TracePackets: 200, Arenas: true})
	ref := Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	if _, err := eng.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	c := eng.Cache()
	sk := eng.keysFor(ref).sched
	if st := c.Stats(); st.Schedules == 0 || st.StreamBytes == 0 || decodedLanes(c) == 0 {
		t.Fatalf("setup retained nothing to drop: %+v, %d decoded", st, decodedLanes(c))
	}
	c.SetStreamBudget(0)
	st := c.Stats()
	if st.StreamBytes != 0 || st.Streams+st.Lanes+st.Schedules+st.ReuseProfiles+st.SampledProfiles != 0 || decodedLanes(c) != 0 {
		t.Fatalf("zero budget kept %+v, %d decoded lanes", st, decodedLanes(c))
	}
	if _, ok := c.scheds.get(c, sk); ok {
		t.Fatal("schedule still answers under a zero budget")
	}
	sched, amb, _ := mkComposed(rand.New(rand.NewSource(1)), false)
	c.scheds.put(c, sk, schedEntry{Sched: sched, Ambient: amb})
	if st := c.Stats(); st.Schedules != 0 || st.StreamBytes != 0 {
		t.Fatalf("zero budget admitted a schedule: %+v", st)
	}
}

// TestMergeDeltaCountsNoTraffic pins that merging a worker's delta is
// not cache traffic: its dedup checks leave every hit and miss counter
// as they were, whether the entries are new or already held.
func TestMergeDeltaCountsNoTraffic(t *testing.T) {
	a, err := netapps.ByName("Route")
	if err != nil {
		t.Fatal(err)
	}
	w := NewEngine(a, Options{TracePackets: 4, Arenas: true})
	if _, err := w.Simulate(context.Background(), Configs(a)[0], nil); err != nil {
		t.Fatal(err)
	}
	d := w.Cache().ExportDelta(NewDeltaCursor())
	if d.Len() == 0 {
		t.Fatal("worker exported no delta")
	}
	c := NewCache()
	before := c.Stats()
	if added, dup := c.MergeDelta(d); added != d.Len() || dup != 0 {
		t.Fatalf("first merge: %d added, %d dup of %d", added, dup, d.Len())
	}
	if added, dup := c.MergeDelta(d); added != 0 || dup != d.Len() {
		t.Fatalf("second merge: %d added, %d dup of %d", added, dup, d.Len())
	}
	after := c.Stats()
	before.Lanes, before.Schedules, before.StreamBytes = after.Lanes, after.Schedules, after.StreamBytes
	if after != before {
		t.Fatalf("MergeDelta moved the traffic counters:\n before %+v\n after  %+v", before, after)
	}
}

// decodedLanes counts the lanes and ambient lanes held decoded.
func decodedLanes(c *Cache) int {
	c.sm.RLock()
	defer c.sm.RUnlock()
	n := 0
	for _, l := range c.lanes.m {
		if l.dec != nil {
			n++
		}
	}
	for _, e := range c.scheds.m {
		if e.Ambient.dec != nil {
			n++
		}
	}
	return n
}

// zeroMeter is a LaneMeter for synthetic composed captures: no heap.
type zeroMeter struct{}

func (zeroMeter) BeginSegment()                 {}
func (zeroMeter) SegmentStats() (uint64, int64) { return 0, 0 }

// mkComposed records a random one-role composed capture: its schedule,
// ambient lane and role lane, each held decoded, as a capture leaves
// it, or encoded, as a load leaves it. A partial capture's lanes are
// encoded and marked partial, as a file could carry them.
func mkComposed(rng *rand.Rand, partial bool) (*astream.Schedule, laneEntry, laneEntry) {
	cr := astream.NewComposedRecorder([]string{"r"}, []astream.LaneMeter{zeroMeter{}, zeroMeter{}}, nil)
	for seg := 0; seg < 1+rng.Intn(4); seg++ {
		for i := rng.Intn(40); i > 0; i-- {
			recordAccess(cr, rng.Intn(2) == 0, uint32(rng.Intn(1<<16))&^3, 4, uint64(rng.Intn(3)))
		}
		cr.RecordBoundary(1 - seg%2)
	}
	sched, lanes := cr.Finish()
	form := func(u *astream.UnpackedLane) laneEntry {
		if !partial && rng.Intn(2) == 0 {
			return laneEntry{dec: u}
		}
		s := u.Encode()
		s.Partial = partial
		return laneEntry{enc: s}
	}
	return sched, form(lanes[0]), form(lanes[1])
}

// mkRandStream records a random whole-run stream.
func mkRandStream(rng *rand.Rand, partial bool) *astream.Stream {
	rec := astream.NewRecorder()
	for i := 1 + rng.Intn(200); i > 0; i-- {
		recordAccess(rec, rng.Intn(2) == 0, uint32(rng.Intn(1<<18))&^3, 4, uint64(rng.Intn(3)))
	}
	return rec.Finish(partial)
}

// mkKeyedProfile builds a reuse profile of access sequence seq (so two
// profiles of one seq merge) over one of two L1 geometries, sampled at
// rate 1/4 when sampled is set.
func mkKeyedProfile(t *testing.T, rng *rand.Rand, seq int, sampled bool) *memsim.ReuseProfile {
	t.Helper()
	cfg := memsim.DefaultConfig()
	if rng.Intn(2) == 0 {
		cfg.L1.SizeBytes = 16 << 10
	}
	shift := uint32(0)
	if sampled {
		shift = 2
	}
	gs, err := memsim.NewGeomSimSampled([]memsim.Config{cfg}, shift)
	if err != nil {
		t.Fatal(err)
	}
	src := rand.New(rand.NewSource(int64(seq)))
	n := 16 + 64*seq
	addrs, sizes := make([]uint32, n), make([]uint32, n)
	for i := range addrs {
		addrs[i], sizes[i] = uint32(src.Intn(1<<16))&^3, 4
	}
	gs.ProbeAccesses(addrs, sizes)
	return gs.Profile()
}

// tierKey names one retained entry; rank is its tier's place in the
// eviction order (schedules last).
type tierKey struct {
	rank int
	key  string
}

// retained lists every entry the cache holds, with its size, and
// checks the bookkeeping the budget rests on: each tier's order holds
// exactly its map's keys, every lane holds exactly one form, and
// StreamBytes is the sum of every retained size.
func retained(t *testing.T, c *Cache) map[tierKey]int64 {
	t.Helper()
	c.sm.RLock()
	defer c.sm.RUnlock()
	out := make(map[tierKey]int64)
	var sum int64
	add := func(rank int, k string, size int64) {
		out[tierKey{rank, k}] = size
		sum += size
	}
	checkOrder := func(name string, order []string, n int) {
		if len(order) != n {
			t.Fatalf("%s: order holds %d keys, map %d", name, len(order), n)
		}
	}
	for _, k := range c.sprofiles.order {
		add(0, k, int64(c.sprofiles.m[k].SizeBytes()))
	}
	checkOrder("sampled profiles", c.sprofiles.order, len(c.sprofiles.m))
	for _, k := range c.streams.order {
		add(1, k, int64(c.streams.m[k].Stream.SizeBytes()))
	}
	checkOrder("streams", c.streams.order, len(c.streams.m))
	oneForm := func(k string, l laneEntry) {
		if (l.enc == nil) == (l.dec == nil) {
			t.Fatalf("lane %q holds %v encoded, %v decoded: want exactly one form", k, l.enc != nil, l.dec != nil)
		}
	}
	for _, k := range c.lanes.order {
		oneForm(k, c.lanes.m[k])
		add(2, k, c.lanes.m[k].size())
	}
	checkOrder("lanes", c.lanes.order, len(c.lanes.m))
	for _, k := range c.rprofiles.order {
		add(3, k, int64(c.rprofiles.m[k].SizeBytes()))
	}
	checkOrder("reuse profiles", c.rprofiles.order, len(c.rprofiles.m))
	for _, k := range c.scheds.order {
		e := c.scheds.m[k]
		oneForm(k, e.Ambient)
		add(4, k, int64(e.Sched.SizeBytes())+e.Ambient.size())
	}
	checkOrder("schedules", c.scheds.order, len(c.scheds.m))
	if len(out) != len(c.sprofiles.m)+len(c.streams.m)+len(c.lanes.m)+len(c.rprofiles.m)+len(c.scheds.m) {
		t.Fatal("a tier's order repeats a key or names one its map lacks")
	}
	if sum != c.streamBytes {
		t.Fatalf("StreamBytes %d, retained entries sum to %d", c.streamBytes, sum)
	}
	if c.streamBudget > 0 && c.streamBytes > c.streamBudget && len(out) > len(c.scheds.m) {
		t.Fatalf("%d bytes over a %d budget with evictable entries held", c.streamBytes, c.streamBudget)
	}
	return out
}

// persisted copies the tiers SaveWithStreams writes, for round-trip
// comparison: schedules without their memos, and each lane in one
// canonical serialized form whichever form it is held in.
func persisted(c *Cache) [4]any {
	canon := func(l laneEntry) *astream.SubStream {
		if l.dec != nil {
			return l.dec.Encode()
		}
		u, err := l.enc.Unpack()
		if err != nil {
			panic(err) // held lanes are complete captures
		}
		return u.Encode()
	}
	lanes := make(map[string]*astream.SubStream)
	for k, l := range c.lanes.snapshot(c) {
		lanes[k] = canon(l)
	}
	scheds := make(map[string]schedWire)
	for k, e := range c.scheds.snapshot(c) {
		scheds[k] = schedWire{Sched: e.Sched, Ambient: canon(e.Ambient), Summary: e.Summary}
	}
	return [4]any{orNil(c.streams.snapshot(c)), orNil(lanes), orNil(scheds), orNil(c.rprofiles.snapshot(c))}
}

// orNil maps an empty map to nil: a tier emptied by eviction and one
// never put into hold the same.
func orNil[V any](m map[string]V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	return m
}

// TestCacheBudgetInvariant applies a seeded random sequence of
// operations to one cache — puts into every tier (replacing, merging
// and partial ones included), first-use decodes, budget changes,
// SaveWithStreams → Load and ExportDelta → MergeDelta round trips —
// and checks after every step that StreamBytes is the sum of what is
// retained, that no retained entry comes before an evicted one in the
// eviction order (tier rank, then age; schedules only under a
// non-positive budget), and that the round trips return the persisted
// tiers unchanged, without sampled profiles.
func TestCacheBudgetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	budgets := []int64{-1, 0, 1500, 4000, 12000, 40000, DefaultStreamBudget}
	c := NewCache()
	c.SetStreamBudget(12000)

	seqOf := make(map[tierKey]int) // the step each held entry arrived at
	prev := retained(t, c)
	key := func(tier string) string { return fmt.Sprintf("%s%d", tier, rng.Intn(6)) }
	for step := 1; step <= 3000; step++ {
		op := rng.Intn(13)
		switch op {
		case 0, 1:
			k := key("stream")
			c.streams.put(c, k, streamEntry{App: "URL", Packets: 1, Stream: mkRandStream(rng, rng.Intn(5) == 0)})
		case 2, 3:
			sched, amb, lane := mkComposed(rng, rng.Intn(5) == 0)
			if rng.Intn(2) == 0 {
				c.scheds.put(c, key("sched"), schedEntry{Sched: sched, Ambient: amb, Summary: apps.Summary{Packets: 1}})
			} else {
				c.lanes.put(c, key("lane"), lane)
			}
		case 4, 5:
			k := rng.Intn(6)
			c.rprofiles.put(c, fmt.Sprintf("rprof%d", k), mkKeyedProfile(t, rng, k, false))
		case 6:
			k := rng.Intn(6)
			c.sprofiles.put(c, fmt.Sprintf("sprof%d", k), mkKeyedProfile(t, rng, k, true))
		case 7, 8:
			// Use a held lane or ambient lane, decoding it if it is
			// encoded, or ask for one the cache does not hold.
			k, ambient := key("lane"), rng.Intn(2) == 0
			if ambient {
				k = key("sched")
			}
			c.sm.RLock()
			_, held := c.laneLocked(k, ambient)
			c.sm.RUnlock()
			if u, _, ok := c.decodedLane(k, ambient); ok != held || ok && u == nil {
				t.Fatalf("step %d: decoding %q answered %v, held %v", step, k, ok, held)
			}
		case 9, 10:
			c.SetStreamBudget(budgets[rng.Intn(len(budgets))])
		case 11:
			want := persisted(c)
			var buf bytes.Buffer
			if err := c.SaveWithStreams(&buf); err != nil {
				t.Fatal(err)
			}
			img := buf.Bytes()
			loaded := NewCache()
			loaded.SetStreamBudget(max(c.streamBudget, 1))
			if err := loaded.Load(bytes.NewReader(img)); err != nil {
				t.Fatal(err)
			}
			if got := persisted(loaded); !reflect.DeepEqual(got, want) {
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Logf("tier %d differs:\n%#v\n%#v", i, got[i], want[i])
					}
				}
				t.Fatalf("step %d: save/load round trip changed the persisted tiers", step)
			}
			if n := len(loaded.sprofiles.m); n != 0 {
				t.Fatalf("step %d: %d sampled profiles persisted", step, n)
			}
			retained(t, loaded)
			// Loading an image into the cache it came from changes nothing.
			if err := c.Load(bytes.NewReader(img)); err != nil {
				t.Fatal(err)
			}
			if got := persisted(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: reloading a cache's own image changed it", step)
			}
		case 12:
			d := c.ExportDelta(NewDeltaCursor())
			merged := NewCache()
			merged.SetStreamBudget(max(c.streamBudget, 1))
			if added, dup := merged.MergeDelta(d); added != d.Len() || dup != 0 {
				t.Fatalf("step %d: fresh merge %d added, %d dup of %d", step, added, dup, d.Len())
			}
			want, got := persisted(c), persisted(merged)
			if !reflect.DeepEqual(got[1], want[1]) || !reflect.DeepEqual(got[2], want[2]) {
				t.Fatalf("step %d: export/merge round trip changed lanes or schedules", step)
			}
			retained(t, merged)
			traffic := c.Stats()
			if added, dup := c.MergeDelta(d); added != 0 || dup != d.Len() {
				t.Fatalf("step %d: self merge %d added, %d dup of %d", step, added, dup, d.Len())
			}
			if c.Stats() != traffic {
				t.Fatalf("step %d: merging a delta moved the cache's stats", step)
			}
		}

		cur := retained(t, c)
		for k := range cur {
			if _, ok := prev[k]; !ok {
				seqOf[k] = step
			}
		}
		for e := range prev {
			if _, ok := cur[e]; ok {
				continue
			}
			if e.rank == 4 && c.streamBudget > 0 {
				t.Fatalf("step %d (op %d): schedule %q evicted under a positive budget", step, op, e.key)
			}
			for r := range cur {
				if r.rank < e.rank || r.rank == e.rank && seqOf[r] < seqOf[e] {
					t.Fatalf("step %d (op %d): evicted %v (arrived step %d) but kept %v (arrived step %d)",
						step, op, e, seqOf[e], r, seqOf[r])
				}
			}
			delete(seqOf, e)
		}
		prev = cur
	}
}
