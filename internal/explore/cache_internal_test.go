package explore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// TestLoadLegacyCacheFormat pins that a file written before the
// sectioned format — a bare gob entry map — is refused cleanly: an
// error, no panic, and nothing merged into the cache it was loaded
// into. The CLI moves such a file aside and runs cold.
func TestLoadLegacyCacheFormat(t *testing.T) {
	legacy := map[string]cacheEntry{
		"k1": {Result: Result{App: "URL"}, Ctx: "prune=0 k=2"},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.store("k0", Result{App: "Route"}, "")
	if err := c.Load(&buf); err == nil {
		t.Fatal("legacy cache accepted")
	}
	if _, ok := c.lookup("k1", false, ""); ok || c.Len() != 1 {
		t.Fatalf("refused load merged entries: %d held", c.Len())
	}
	if err := NewCache().Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage cache file accepted")
	}
}

// recordAccess hands s one access as a Hierarchy would: a batch of one,
// or, for a zero-size access, its op cycles alone.
func recordAccess(s memsim.EventSink, write bool, addr, size uint32, ops uint64) {
	if size == 0 {
		s.RecordOps(ops)
		return
	}
	s.RecordBatch(memsim.Batch{Addr: []uint32{addr}, Size: []uint32{size}, Write: []bool{write}, Ops: []uint64{ops}})
}

// mkStream records one tiny stream, optionally partial.
func mkStream(partial bool) *astream.Stream {
	rec := astream.NewRecorder()
	recordAccess(rec, false, 0x1000_0000, 4, 2)
	return rec.Finish(partial)
}

// TestLoadPartialDoesNotReplaceComplete pins that no cache holds a
// partial whole-run stream: a put drops one, so it can neither
// replace a complete stream nor take stream budget, and a load drops
// the partial streams a saved image carries.
func TestLoadPartialDoesNotReplaceComplete(t *testing.T) {
	c := NewCache()
	c.streams.put(c, "P", streamEntry{App: "URL", Packets: 300, Stream: mkStream(true)})
	if st := c.Stats(); st.Streams != 0 || st.StreamBytes != 0 {
		t.Fatalf("put kept a partial stream: %+v", st)
	}
	c.streams.put(c, "K", streamEntry{App: "URL", Packets: 300, Stream: mkStream(false)})
	c.streams.put(c, "K", streamEntry{App: "URL", Packets: 300, Stream: mkStream(true)})
	if se, ok := c.streams.get(c, "K"); !ok || se.Stream.Partial {
		t.Fatalf("complete stream lost to a stored partial (ok=%v)", ok)
	}

	// A saved image whose streams section carries partial streams, one
	// under the key c holds complete.
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(map[string]streamEntry{
		"K": {App: "URL", Packets: 300, Stream: mkStream(true)},
		"P": {App: "URL", Packets: 300, Stream: mkStream(true)},
	}); err != nil {
		t.Fatal(err)
	}
	img := bytes.NewBufferString(cacheMagic)
	img.Write(binary.LittleEndian.AppendUint32(nil, cacheVersion))
	if err := writeFrame(img, secStreams, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(img, secEnd, nil); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().StreamBytes
	if err := c.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if se, ok := c.streams.get(c, "K"); !ok || se.Stream.Partial {
		t.Fatalf("complete stream lost to a loaded partial (ok=%v)", ok)
	}
	if st := c.Stats(); st.Streams != 1 || st.StreamBytes != before {
		t.Fatalf("load kept a partial stream: %+v", st)
	}
	fresh := NewCache()
	if err := fresh.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Streams != 0 || st.StreamBytes != 0 {
		t.Fatalf("load kept a partial stream: %+v", st)
	}
}

// mkReuseProfile builds a small real reuse profile from an all-geometry
// pass over a handful of accesses.
func mkReuseProfile(t *testing.T) *memsim.ReuseProfile {
	t.Helper()
	gs, err := memsim.NewGeomSim([]memsim.Config{memsim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	gs.ProbeAccesses([]uint32{0x1000, 0x1004, 0x9000, 0x1000}, []uint32{4, 4, 64, 4})
	p := gs.Profile()
	p.ReadWords, p.WriteWords, p.OpCycles, p.Peak = 8, 2, 40, 512
	return p
}

// TestReuseProfilePersistenceAndBudget pins the profile store: profiles
// count against the stream budget, survive SaveWithStreams/Load intact,
// and are evicted only after every stream — dropping last because they
// are the cheapest path to a result.
func TestReuseProfilePersistenceAndBudget(t *testing.T) {
	c := NewCache()
	p := mkReuseProfile(t)
	key := reuseProfileKey("S", p.LineBytes)
	c.rprofiles.put(c, key, p)
	if got := c.Stats().StreamBytes; got != int64(p.SizeBytes()) {
		t.Fatalf("profile bytes not budgeted: %d vs %d", got, p.SizeBytes())
	}
	// Replacement swaps the accounting, not doubles it.
	c.rprofiles.put(c, key, p)
	if got := c.Stats().StreamBytes; got != int64(p.SizeBytes()) {
		t.Fatalf("profile replacement double-counted: %d vs %d", got, p.SizeBytes())
	}

	var buf bytes.Buffer
	if err := c.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.rprofiles.get(loaded, key)
	if !ok || !reflect.DeepEqual(got, p) {
		t.Fatalf("profile did not round-trip: %+v", got)
	}
	if s := loaded.Stats(); s.ReuseProfiles != 1 || s.StreamBytes != int64(p.SizeBytes()) {
		t.Fatalf("loaded stats wrong: %+v", s)
	}
	// Save without streams drops profiles along with streams and lanes.
	var lean bytes.Buffer
	if err := c.Save(&lean); err != nil {
		t.Fatal(err)
	}
	leanCache := NewCache()
	if err := leanCache.Load(&lean); err != nil {
		t.Fatal(err)
	}
	if s := leanCache.Stats(); s.ReuseProfiles != 0 {
		t.Fatalf("results-only save kept %d profiles", s.ReuseProfiles)
	}

	// Eviction order: squeezing the budget drops the (bigger) stream
	// first and keeps the profile; squeezing further drops the profile.
	c2 := NewCache()
	rec := astream.NewRecorder()
	for i := 0; i < 4096; i++ {
		recordAccess(rec, false, uint32(i*64), 4, 1)
	}
	c2.streams.put(c2, "K", streamEntry{App: "URL", Packets: 1, Stream: rec.Finish(false)})
	c2.rprofiles.put(c2, key, p)
	c2.SetStreamBudget(int64(p.SizeBytes()) + 64)
	if s := c2.Stats(); s.Streams != 0 || s.ReuseProfiles != 1 {
		t.Fatalf("eviction order wrong: %+v", s)
	}
	if _, ok := c2.rprofiles.get(c2, key); !ok {
		t.Fatal("profile lost while budget still held it")
	}
	c2.SetStreamBudget(1)
	if s := c2.Stats(); s.ReuseProfiles != 0 {
		t.Fatalf("profile survived a 1-byte budget: %+v", s)
	}
}

// mkSampledProfile builds a small sampled reuse profile (screening
// estimate) from a sampled all-geometry pass.
func mkSampledProfile(t *testing.T) *memsim.ReuseProfile {
	t.Helper()
	gs, err := memsim.NewGeomSimSampled([]memsim.Config{memsim.DefaultConfig()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint32, 256)
	sizes := make([]uint32, 256)
	for i := range addrs {
		addrs[i], sizes[i] = uint32(i*64), 4
	}
	gs.ProbeAccesses(addrs, sizes)
	p := gs.Profile()
	p.ReadWords, p.WriteWords, p.OpCycles, p.Peak = 8, 2, 40, 512
	return p
}

// TestCacheEvictionOrder pins the documented eviction tiers end to end:
// under a shrinking budget, sampled profiles go first (approximate
// screening artifacts, one sampled replay each), then whole streams,
// then lane sub-streams, then reuse profiles — and schedules never.
func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache()
	sp := mkSampledProfile(t)
	rp := mkReuseProfile(t)
	rec := astream.NewRecorder()
	for i := 0; i < 4096; i++ {
		recordAccess(rec, false, uint32(i*64), 4, 1)
	}
	c.streams.put(c, "stream", streamEntry{App: "URL", Packets: 1, Stream: rec.Finish(false)})
	laneRec := astream.NewRecorder()
	for i := 0; i < 2048; i++ {
		recordAccess(laneRec, true, uint32(i*32), 4, 1)
	}
	lane := &astream.SubStream{Stream: *laneRec.Finish(false), Role: "r", Lane: 1}
	c.lanes.put(c, "lane", laneEntry{enc: lane})
	c.rprofiles.put(c, "rprof", rp)
	c.sprofiles.put(c, screenKey("sprof", 2), sp)

	snapshot := func() (sprofs, streams, lanes, rprofs int) {
		s := c.Stats()
		return s.SampledProfiles, s.Streams, s.Lanes, s.ReuseProfiles
	}
	if sp, st, ln, rp := snapshot(); sp != 1 || st != 1 || ln != 1 || rp != 1 {
		t.Fatalf("setup wrong: %d/%d/%d/%d", sp, st, ln, rp)
	}

	// Tier 1: squeeze out only the sampled profile.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if sp, st, ln, rp := snapshot(); sp != 0 || st != 1 || ln != 1 || rp != 1 {
		t.Fatalf("sampled profile not evicted first: %d/%d/%d/%d", sp, st, ln, rp)
	}
	// Tier 2: the whole stream goes before the lane.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if _, st, ln, rp := snapshot(); st != 0 || ln != 1 || rp != 1 {
		t.Fatalf("stream not evicted second: %d/%d/%d", st, ln, rp)
	}
	// Tier 3: the lane sub-stream goes before the reuse profile.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if _, st, ln, rp := snapshot(); ln != 0 || rp != 1 {
		t.Fatalf("lane not evicted third: %d/%d/%d", st, ln, rp)
	}
	// Tier 4: finally the reuse profile.
	c.SetStreamBudget(1)
	if _, _, _, rp := snapshot(); rp != 0 {
		t.Fatal("reuse profile survived a 1-byte budget")
	}
}

// TestSampledProfilesNotPersisted pins that sampled screening profiles
// are runtime-only: SaveWithStreams drops them (they are approximate
// artifacts any screening run rebuilds in one sampled replay).
func TestSampledProfilesNotPersisted(t *testing.T) {
	c := NewCache()
	key := screenKey("sprof", 2)
	c.sprofiles.put(c, key, mkSampledProfile(t))
	var buf bytes.Buffer
	if err := c.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s := loaded.Stats(); s.SampledProfiles != 0 {
		t.Fatalf("sampled profiles persisted: %+v", s)
	}
	if _, ok := loaded.sprofiles.get(loaded, key); ok {
		t.Fatal("sampled profile survived a save/load round trip")
	}
}

// TestReuseProfileStoreMergesCoverage pins that re-storing a profile
// built from a narrower family merges into — never replaces — the
// accumulated coverage for the identity.
func TestReuseProfileStoreMergesCoverage(t *testing.T) {
	wide := memsim.DefaultConfig()
	narrow := memsim.DefaultConfig()
	narrow.L1.SizeBytes = 16 << 10

	mk := func(cfg memsim.Config) *memsim.ReuseProfile {
		gs, err := memsim.NewGeomSim([]memsim.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		gs.ProbeAccesses([]uint32{0x1000, 0x5000, 0x1000, 0x20000}, []uint32{4, 8, 4, 4})
		return gs.Profile()
	}

	c := NewCache()
	key := reuseProfileKey("S", 32)
	c.rprofiles.put(c, key, mk(wide))
	c.rprofiles.put(c, key, mk(narrow))
	p, ok := c.rprofiles.get(c, key)
	if !ok || !p.Covers(wide) || !p.Covers(narrow) {
		t.Fatalf("narrow re-store lost coverage: %+v", p)
	}
	if got := c.Stats().StreamBytes; got != int64(p.SizeBytes()) {
		t.Fatalf("merge accounting wrong: %d vs %d", got, p.SizeBytes())
	}
}
