package explore

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// Cache memoizes finished simulation results. The key identifies a
// simulation completely — application, trace, per-simulation packet count,
// knobs, platform configuration and DDT assignment — so a hit is exactly
// the deterministic result the simulation would recompute. The network
// level exploration re-visits step-1 points, sweeps revisit whole
// configurations, and repeated CLI runs (via Save/Load) revisit entire
// explorations; the cache turns all of those into lookups.
//
// Beside finished results the cache retains five kinds of artifact, keyed
// by the simulation identity *minus* the platform configuration so every
// platform point of a run shares them. Each is a tier of one store with
// one byte budget (SetStreamBudget):
//
//   - whole-run access streams (internal/astream): any other platform
//     point of the same (app, config, packets, assignment) replays the
//     stream instead of re-running the application — the capture-once /
//     replay-many fast path of multi-platform sweeps;
//   - lanes, one per (role, kind), and schedules, one per configuration
//     (arena-model engines): any combination whose K lanes are all
//     present is served by composed replay, so ~10·K lanes stand in for
//     the 10^K whole-run streams a flat capture would need;
//   - reuse profiles, per (identity, line size) (memsim.ReuseProfile):
//     a covered platform point is pure arithmetic, no decode, no probes;
//   - sampled reuse profiles: the rate-tagged estimates screening
//     replays leave behind, keyed apart (screenKey) so they never answer
//     an exact lookup.
//
// One policy table governs the tiers: what an entry costs, what is
// admitted, what a put over a held key keeps, the eviction rank, and
// whether SaveWithStreams persists the tier.
//
//	tier              size                       admits    put over a key  evicted  saved
//	sampled profiles  SizeBytes                  non-nil   Merge           1st      no
//	streams           stream SizeBytes           complete  new value       2nd      yes
//	lanes             resident form              complete  new value       3rd      encoded
//	reuse profiles    SizeBytes                  non-nil   Merge           4th      yes
//	schedules         schedule + ambient's form  complete  first value     never*   encoded
//
// A partial (aborted) capture proves nothing about the full run, so it is
// never stored. Eviction is oldest first within a tier and only costs a
// potential re-execution later; *a non-positive budget empties every
// tier, schedules included, and a shared-heap engine on it captures no
// streams.
//
// Each lane, and each schedule's ambient lane, is resident in exactly
// one form (laneEntry) and charged for that form alone. A captured lane
// arrives decoded — the struct-of-arrays form composed replay reads. A
// loaded or merged lane arrives encoded and stays so until its first
// use (decodedLane), which decodes it once, drops the chunks and
// switches the charge to the decoded size. Saves and deltas encode
// decoded lanes afresh. The decoded form also memoizes the lane's
// isolated suffix tables, from which the bound-guided search derives
// its lane bounds. Each schedule entry memoizes the exact composed
// footprint peaks of the combinations asked about (composedPeak).
// Dominance profiles, whose per-role attribution is platform-invariant,
// are memoized outside the budget, so a sweep profiles each network
// configuration once.
//
// Aborted results are stored as dominance tombstones: the partial vector
// plus the proof (by construction) that an identical exploration already
// found the point dominated. Guarded exploration streams accept them and
// skip the re-simulation; unguarded callers (Engine.Simulate) treat them
// as misses and overwrite them with the full result. A Cache is safe for
// concurrent use and may be shared between engines.
type Cache struct {
	// mu guards the results and the dominance profiles.
	mu       sync.RWMutex
	m        map[string]cacheEntry
	profiles map[string]*profiler.Set

	// sm guards the tiers, whose bytes make streamBytes.
	sm           sync.RWMutex
	streamBytes  int64
	streamBudget int64
	streams      tier[streamEntry, streamPolicy]
	lanes        tier[laneEntry, lanePolicy]
	scheds       tier[schedEntry, schedPolicy]
	rprofiles    tier[*memsim.ReuseProfile, profilePolicy]
	sprofiles    tier[*memsim.ReuseProfile, profilePolicy]

	// ckpt is the latest campaign checkpoint — settled-job watermark,
	// survivor front, stats — persisted as its own section so an
	// interrupted run resumes with its reporting state, not just its
	// memoized results.
	ckpt atomic.Pointer[Checkpoint]

	hits, misses                            atomic.Uint64
	streamTraffic, laneTraffic, profTraffic traffic
}

// cacheEntry is one memoized simulation. Ctx tags tombstones with the
// exploration semantics (dominant-k, early abort, bound
// pruning) that proved the point dominated: a tombstone is only a valid
// answer for an engine exploring the same job space under the same
// discard rules, while finished results are valid for everyone.
type cacheEntry struct {
	Result Result
	Ctx    string
}

// streamEntry is one captured access stream plus the platform-invariant
// identity and behavioural summary of the run that produced it. The
// identity fields let ReplayPlatforms enumerate streams and store exact
// per-platform results without re-deriving keys from the outside.
// Arenas records the address model the stream was captured under; replay
// results are stored under matching keys so the two models never mix.
type streamEntry struct {
	App     string
	Cfg     Config
	Assign  apps.Assignment
	Packets int
	Stream  *astream.Stream
	Summary apps.Summary
	Arenas  bool
}

// schedEntry is one run's operation schedule plus everything about the
// run that is DDT-invariant: the ambient lane and the behavioural
// summary (the refinement never changes functionality, so one summary
// serves every combination of the same configuration). peaks is
// runtime-only and never persisted: see composedPeak.
type schedEntry struct {
	Sched   *astream.Schedule
	Ambient laneEntry
	Summary apps.Summary
	peaks   *peakMemo
}

// laneEntry is one retained lane in its one resident form: enc, the
// serialized sub-stream a load or a merged delta delivered, until the
// lane's first use replaces the entry with its decoded form dec. A
// capture stores dec directly. Entries are values: decodedLane swaps
// the whole entry under sm, so a snapshot never sees a half-switched
// one.
type laneEntry struct {
	enc *astream.SubStream
	dec *astream.UnpackedLane
}

// size is what the lane's resident form costs the budget.
func (l laneEntry) size() int64 {
	if l.dec != nil {
		return int64(l.dec.SizeBytes())
	}
	return int64(l.enc.SizeBytes())
}

// complete reports whether the lane holds a form that may be composed.
func (l laneEntry) complete() bool {
	return l.dec != nil || l.enc != nil && !l.enc.Partial
}

// encoded returns the lane's serialized form, encoding a decoded lane
// afresh.
func (l laneEntry) encoded() *astream.SubStream {
	if l.dec != nil {
		return l.dec.Encode()
	}
	return l.enc
}

// schedWire is a schedule entry's serialized form, in cache files and
// worker deltas: the ambient lane encoded.
type schedWire struct {
	Sched   *astream.Schedule
	Ambient *astream.SubStream
	Summary apps.Summary
}

// wireLanes renders lane entries in their serialized form.
func wireLanes(m map[string]laneEntry) map[string]*astream.SubStream {
	out := make(map[string]*astream.SubStream, len(m))
	for k, l := range m {
		out[k] = l.encoded()
	}
	return out
}

// wireScheds renders schedule entries in their serialized form.
func wireScheds(m map[string]schedEntry) map[string]schedWire {
	out := make(map[string]schedWire, len(m))
	for k, e := range m {
		out[k] = schedWire{Sched: e.Sched, Ambient: e.Ambient.encoded(), Summary: e.Summary}
	}
	return out
}

// laneEntries files serialized lanes as entries that stay encoded until
// their first use.
func laneEntries(m map[string]*astream.SubStream) map[string]laneEntry {
	out := make(map[string]laneEntry, len(m))
	for k, s := range m {
		out[k] = laneEntry{enc: s}
	}
	return out
}

// schedEntries files serialized schedules, their ambient lanes encoded
// until their first use.
func schedEntries(m map[string]schedWire) map[string]schedEntry {
	out := make(map[string]schedEntry, len(m))
	for k, w := range m {
		out[k] = schedEntry{Sched: w.Sched, Ambient: laneEntry{enc: w.Ambient}, Summary: w.Summary}
	}
	return out
}

// peakMemo holds the exact composed footprint peaks of one schedule's
// combinations, keyed by the combination's kinds in schedule-role
// order (peakKey). It holds numbers only — never a lane — so evicting
// lanes frees them whatever the memo has seen, and the memo goes
// wherever its schedule entry goes.
type peakMemo struct {
	mu sync.Mutex
	m  map[string]uint64
}

// tier is one budgeted kind of artifact: its entries and their keys in
// insertion order, guarded by the cache's sm and charged to its one
// budget. The zero-size policy type P holds the tier's row of the
// policy table (see Cache); the eviction rank is evictLocked's and
// persistence is save's.
type tier[V any, P tierPolicy[V]] struct {
	m     map[string]V // allocated on the first put
	order []string     // the keys of m, oldest first
}

// tierPolicy is one tier's row of the policy table.
type tierPolicy[V any] interface {
	size(V) int64
	// admit reports whether a value may be stored at all.
	admit(V) bool
	// keep returns what a put of v leaves under a key that held old;
	// had reports whether it held anything.
	keep(old, v V, had bool) V
	// traffic returns the counters the tier's gets count on.
	traffic(*Cache) *traffic
}

// traffic counts a store's hits and misses.
type traffic struct{ hits, misses atomic.Uint64 }

type (
	streamPolicy  struct{}
	lanePolicy    struct{}
	schedPolicy   struct{}
	profilePolicy struct{}
)

func (streamPolicy) size(e streamEntry) int64                  { return int64(e.Stream.SizeBytes()) }
func (streamPolicy) admit(e streamEntry) bool                  { return e.Stream != nil && !e.Stream.Partial }
func (streamPolicy) keep(_, e streamEntry, _ bool) streamEntry { return e }
func (streamPolicy) traffic(c *Cache) *traffic                 { return &c.streamTraffic }

func (lanePolicy) size(l laneEntry) int64                { return l.size() }
func (lanePolicy) admit(l laneEntry) bool                { return l.complete() }
func (lanePolicy) keep(_, l laneEntry, _ bool) laneEntry { return l }
func (lanePolicy) traffic(c *Cache) *traffic             { return &c.laneTraffic }

func (schedPolicy) size(e schedEntry) int64 {
	return int64(e.Sched.SizeBytes()) + e.Ambient.size()
}
func (schedPolicy) admit(e schedEntry) bool {
	return e.Sched != nil && e.Ambient.complete()
}

// keep lets the first complete capture of a configuration win — its
// schedule is DDT-invariant — and gives a new entry its own peak memo,
// whatever cache it came from.
func (schedPolicy) keep(old, e schedEntry, had bool) schedEntry {
	if had {
		return old
	}
	e.peaks = &peakMemo{}
	return e
}
func (schedPolicy) traffic(c *Cache) *traffic { return &c.laneTraffic }

func (profilePolicy) size(p *memsim.ReuseProfile) int64 { return int64(p.SizeBytes()) }
func (profilePolicy) admit(p *memsim.ReuseProfile) bool { return p != nil }

// keep merges a profile into the one held (memsim.ReuseProfile.Merge),
// so a pass over a narrower family never shrinks an identity's
// coverage. Sampled passes of one stream at one rate agree wherever
// they overlap: the hash filter is deterministic.
func (profilePolicy) keep(old, p *memsim.ReuseProfile, had bool) *memsim.ReuseProfile {
	if had {
		return p.Merge(old)
	}
	return p
}
func (profilePolicy) traffic(c *Cache) *traffic { return &c.profTraffic }

// get returns the entry under key, counting a hit or a miss. Entries
// are shared, not copied: stored values are never mutated, and a
// caller that hands an entry's summary on clones it (cloneSummary).
func (t *tier[V, P]) get(c *Cache, key string) (V, bool) {
	c.sm.RLock()
	v, ok := t.m[key]
	c.sm.RUnlock()
	var p P
	p.traffic(c).count(ok)
	return v, ok
}

// count counts one hit or miss.
func (t *traffic) count(hit bool) {
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// put files v under key by the tier's policy and restores the budget.
func (t *tier[V, P]) put(c *Cache, key string, v V) {
	c.sm.Lock()
	t.putLocked(c, key, v)
	c.evictLocked()
	c.sm.Unlock()
}

// putAll puts every entry of m under one lock and one eviction pass —
// a loaded section, a worker's delta — and counts the keys the tier
// did not hold. firstWins skips the keys it did hold, whatever the
// policy.
func (t *tier[V, P]) putAll(c *Cache, m map[string]V, firstWins bool) (added int) {
	c.sm.Lock()
	defer c.sm.Unlock()
	for k, v := range m {
		if _, had := t.m[k]; !had {
			added++
		} else if firstWins {
			continue
		}
		t.putLocked(c, k, v)
	}
	c.evictLocked()
	return added
}

// putLocked is put without the eviction pass. Called with sm held.
func (t *tier[V, P]) putLocked(c *Cache, key string, v V) {
	var p P
	if c.streamBudget <= 0 || !p.admit(v) {
		return
	}
	old, had := t.m[key]
	if had {
		c.streamBytes -= p.size(old)
	} else {
		if t.m == nil {
			t.m = make(map[string]V)
		}
		t.order = append(t.order, key)
	}
	v = p.keep(old, v, had)
	t.m[key] = v
	c.streamBytes += p.size(v)
}

// evict drops the tier's oldest entries while the cache is over its
// budget — all of them under a non-positive budget. Called with sm held.
func (t *tier[V, P]) evict(c *Cache) {
	var p P
	for len(t.order) > 0 && (c.streamBudget <= 0 || c.streamBytes > c.streamBudget) {
		key := t.order[0]
		t.order = t.order[1:]
		c.streamBytes -= p.size(t.m[key])
		delete(t.m, key)
	}
	if len(t.order) == 0 {
		t.order = nil
	}
}

// dropLocked removes the entry under key, if held. Called with sm
// held.
func (t *tier[V, P]) dropLocked(c *Cache, key string) {
	v, ok := t.m[key]
	if !ok {
		return
	}
	var p P
	c.streamBytes -= p.size(v)
	delete(t.m, key)
	t.order = slices.DeleteFunc(t.order, func(k string) bool { return k == key })
}

// snapshot copies the tier's map; the values are shared.
func (t *tier[V, P]) snapshot(c *Cache) map[string]V {
	c.sm.RLock()
	defer c.sm.RUnlock()
	return maps.Clone(t.m)
}

// export snapshots the entries whose keys are not in seen and adds
// their keys to it.
func (t *tier[V, P]) export(c *Cache, seen map[string]bool) map[string]V {
	m := t.snapshot(c)
	for k := range m {
		if seen[k] {
			delete(m, k)
		} else {
			seen[k] = true
		}
	}
	return m
}

// evictLocked restores the budget one tier at a time, in the policy
// table's rank:
//
//  1. sampled reuse profiles — approximate screening estimates, the
//     cheapest artifacts in the cache (one sampled replay rebuilds one);
//  2. whole streams — each is one simulation point (a lane serves
//     10^(K-1) combinations);
//  3. lanes;
//  4. reuse profiles — a profile is a few KB that answers a whole
//     geometry cross product with zero probes, so it outlives the
//     streams it summarizes;
//  5. schedules, only under a non-positive budget — they are small and
//     every lane of their configuration depends on them.
//
// The order is asserted by TestCacheEvictionOrder. Called with sm held.
func (c *Cache) evictLocked() {
	tiers := [...]interface{ evict(*Cache) }{&c.sprofiles, &c.streams, &c.lanes, &c.rprofiles, &c.scheds}
	n := len(tiers)
	if c.streamBudget > 0 {
		n--
	}
	for _, t := range tiers[:n] {
		t.evict(c)
	}
}

// DefaultStreamBudget bounds the resident bytes of the retained tiers:
// generous enough to hold a full step-1 combination space at
// benchmark scale, small enough to keep multi-application sweeps from
// growing without bound.
const DefaultStreamBudget = 256 << 20

// NewCache returns an empty simulation cache. The tiers allocate their
// maps on their first put, so a cache that only ever holds results —
// every engine's private one on the shared heap — costs two
// allocations.
func NewCache() *Cache {
	return &Cache{m: make(map[string]cacheEntry), streamBudget: DefaultStreamBudget}
}

// SetStreamBudget overrides the byte budget of the retained tiers. A
// non-positive budget empties every tier — whole-run streams, lanes,
// schedules and reuse profiles — and keeps them empty,
// and a shared-heap engine on such a cache captures no streams at all.
func (c *Cache) SetStreamBudget(bytes int64) {
	c.sm.Lock()
	c.streamBudget = bytes
	c.evictLocked()
	c.sm.Unlock()
}

// keepsStreams reports whether the cache retains access streams at all:
// whether its stream budget is positive.
func (c *Cache) keepsStreams() bool {
	c.sm.RLock()
	defer c.sm.RUnlock()
	return c.streamBudget > 0
}

// CacheStats reports cache traffic since construction (or Load).
type CacheStats struct {
	Hits, Misses               uint64
	Entries                    int
	Streams                    int   // retained access streams
	StreamBytes                int64 // retained bytes: streams, schedules, reuse profiles, and each lane once in its resident (encoded or decoded) form
	StreamHits, StreamMisses   uint64
	Lanes                      int // retained per-(role, kind) lanes
	Schedules                  int // retained per-configuration schedules
	LaneHits, LaneMisses       uint64
	ReuseProfiles              int // retained per-(identity, line size) reuse profiles
	ProfileHits, ProfileMisses uint64
	SampledProfiles            int // retained rate-tagged sampled reuse profiles (screening)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	s := CacheStats{Entries: len(c.m)}
	c.mu.RUnlock()
	c.sm.RLock()
	s.Streams, s.StreamBytes = len(c.streams.m), c.streamBytes
	s.Lanes, s.Schedules = len(c.lanes.m), len(c.scheds.m)
	s.ReuseProfiles, s.SampledProfiles = len(c.rprofiles.m), len(c.sprofiles.m)
	c.sm.RUnlock()
	s.Hits, s.Misses = c.hits.Load(), c.misses.Load()
	s.StreamHits, s.StreamMisses = c.streamTraffic.hits.Load(), c.streamTraffic.misses.Load()
	s.LaneHits, s.LaneMisses = c.laneTraffic.hits.Load(), c.laneTraffic.misses.Load()
	s.ProfileHits, s.ProfileMisses = c.profTraffic.hits.Load(), c.profTraffic.misses.Load()
	return s
}

// Len returns the number of cached simulations.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// lookup returns a defensive copy of the cached result for key. Aborted
// (tombstone) entries only count as hits when the caller can use them —
// a guarded exploration stream with the same exploration semantics the
// tombstone was proven under; anyone else needs the finished vector.
func (c *Cache) lookup(key string, acceptAborted bool, ctx string) (Result, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || (e.Result.Aborted && !(acceptAborted && e.Ctx == ctx)) {
		c.misses.Add(1)
		return Result{}, false
	}
	c.hits.Add(1)
	return cloneResult(e.Result), true
}

// invalidate drops the finished result or tombstone stored under key,
// reporting whether an entry was present. The repair path of a
// distributed quarantine: wiping an admitted result returns its job to
// the unsettled space — the warm pre-pass and runJob both miss — so an
// honest resolver recomputes it from scratch. Compositional entries
// are untouched; the coordinator's verification oracle never trusts
// them (it re-simulates live), so results are the only admitted state
// a lie can occupy.
func (c *Cache) invalidate(key string) bool {
	c.mu.Lock()
	_, ok := c.m[key]
	if ok {
		delete(c.m, key)
	}
	c.mu.Unlock()
	return ok
}

// store saves a defensive copy of r under key, tagged with the storing
// engine's exploration context.
func (c *Cache) store(key string, r Result, ctx string) {
	e := cacheEntry{Result: cloneResult(r), Ctx: ctx}
	c.mu.Lock()
	c.m[key] = e
	c.mu.Unlock()
}

// has reports whether a finished (non-tombstone) result exists for key,
// without touching the hit/miss counters.
func (c *Cache) has(key string) bool {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	return ok && !e.Result.Aborted
}

// decodedLane returns the decoded form of the lane under key — a lane
// key, or with ambient a schedule key naming its ambient lane. A lane
// still in its serialized form is decoded on this first use, once,
// under sm: the entry then holds the decoded form alone and the budget
// is charged for it instead of the chunks. Lane lookups count as lane
// traffic, as a get does; ok is false when the entry is not held or
// does not decode.
func (c *Cache) decodedLane(key string, ambient bool) (*astream.UnpackedLane, bool) {
	c.sm.RLock()
	l, ok := c.laneLocked(key, ambient)
	c.sm.RUnlock()
	if !ambient {
		c.laneTraffic.count(ok)
	}
	if !ok || l.dec != nil {
		return l.dec, ok
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if l, ok = c.laneLocked(key, ambient); !ok || l.dec != nil {
		return l.dec, ok // evicted, or another goroutine decoded it
	}
	u, err := l.enc.Unpack()
	if err != nil {
		// Dropped, so that the next capture of a combination needing it
		// records it afresh; a schedule is no use without its ambient
		// lane.
		if ambient {
			c.scheds.dropLocked(c, key)
		} else {
			c.lanes.dropLocked(c, key)
		}
		return nil, false
	}
	dec := laneEntry{dec: u}
	c.streamBytes += dec.size() - l.size()
	if ambient {
		e := c.scheds.m[key]
		e.Ambient = dec
		c.scheds.m[key] = e
	} else {
		c.lanes.m[key] = dec
	}
	c.evictLocked()
	return u, true
}

// laneLocked returns the lane entry decodedLane resolves. Called with
// sm held.
func (c *Cache) laneLocked(key string, ambient bool) (laneEntry, bool) {
	if ambient {
		e, ok := c.scheds.m[key]
		return e.Ambient, ok
	}
	l, ok := c.lanes.m[key]
	return l, ok
}

// composedPeak returns the exact composed footprint peak of the
// combination whose role kinds, in schedule-role order, are key
// (peakKey), memoized on the schedule entry under sk. walk computes it
// on the first request (astream.ComposedPeak over the combination's
// lanes); a failed walk is not memoized. Footprint is platform-
// invariant, so every engine sharing the cache reads one walk per
// combination. The memo's entries are a few words each and are not
// charged against the stream budget.
func (c *Cache) composedPeak(sk string, key []byte, walk func() (uint64, bool)) (uint64, bool) {
	c.sm.RLock()
	e, ok := c.scheds.m[sk]
	c.sm.RUnlock()
	if !ok {
		return walk()
	}
	pm := e.peaks
	pm.mu.Lock()
	p, ok := pm.m[string(key)]
	pm.mu.Unlock()
	if ok {
		return p, true
	}
	if p, ok = walk(); !ok {
		return 0, false
	}
	pm.mu.Lock()
	if pm.m == nil {
		pm.m = make(map[string]uint64)
	}
	pm.m[string(key)] = p
	pm.mu.Unlock()
	return p, true
}

// peakKey appends the kinds assign gives roles, in order, to buf: the
// peak memo's key for one combination of a schedule with those roles.
func peakKey(buf []byte, roles []string, assign apps.Assignment) []byte {
	for _, role := range roles {
		buf = append(buf, byte(apps.KindFor(assign, role)))
	}
	return buf
}

// missingLanes reports which lanes of a capture the cache would admit
// and does not hold: index 0 the ambient lane of the schedule under sk
// (a held schedule keeps its first capture), index i+1 the lane under
// keys[i]. It touches no hit/miss counter.
func (c *Cache) missingLanes(sk string, keys []string) []bool {
	c.sm.RLock()
	defer c.sm.RUnlock()
	missing := make([]bool, len(keys)+1)
	if c.streamBudget <= 0 {
		return missing
	}
	_, held := c.scheds.m[sk]
	missing[0] = !held
	for i, k := range keys {
		_, held = c.lanes.m[k]
		missing[i+1] = !held
	}
	return missing
}

// lookupProfile returns the memoized dominance profile for the platform-
// invariant key. Profiles are shared, not copied: a profiler.Set is
// effectively immutable once the profiling run finishes.
func (c *Cache) lookupProfile(key string) *profiler.Set {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.profiles[key]
}

// storeProfile memoizes a dominance profile.
func (c *Cache) storeProfile(key string, p *profiler.Set) {
	c.mu.Lock()
	if c.profiles == nil {
		c.profiles = make(map[string]*profiler.Set)
	}
	c.profiles[key] = p
	c.mu.Unlock()
}

// Save serializes the cached results to w (gob), without the access
// streams; use SaveWithStreams to persist those too. Counters are not
// saved.
func (c *Cache) Save(w io.Writer) error {
	return c.save(w, false)
}

// SaveWithStreams serializes the cached results and the retained access
// streams — whole-run streams, per-(role, kind) lanes and schedules,
// lanes in their encoded form — so a later process can replay new platform points or
// compose new combinations without re-executing anything.
func (c *Cache) SaveWithStreams(w io.Writer) error {
	return c.save(w, true)
}

// save and Load live in cache_io.go: the sectioned format with
// per-section CRC32C framing, its salvaging loader, and the atomic
// SaveFile path.

// cacheKey renders the complete identity of one simulation: the
// platform-invariant part (streamKey) plus the platform configuration.
// arenas distinguishes the per-role-arena address model, whose results
// are deliberately never interchangeable with shared-heap ones.
func cacheKey(app string, cfg Config, assign apps.Assignment, packets int, platform memsim.Config, arenas bool) string {
	return fmt.Sprintf("%s|%+v", streamKey(app, cfg, assign, packets, arenas), platform)
}

// streamKey renders the platform-invariant part of a simulation's
// identity — everything that determines the word-access stream,
// including the address model.
func streamKey(app string, cfg Config, assign apps.Assignment, packets int, arenas bool) string {
	k := fmt.Sprintf("%s|%s|%d|%s", app, cfg, packets, assign)
	if arenas {
		k += "|arenas"
	}
	return k
}

// reuseProfileKey identifies one reuse profile: the platform-invariant
// stream identity plus the line size whose geometry family the profile
// covers.
func reuseProfileKey(skey string, lineBytes uint32) string {
	return fmt.Sprintf("%s|reuse|%d", skey, lineBytes)
}

// screenKey tags a cache key with the screening sample shift, so
// sampled estimates, their widened-bound tombstones and their profiles
// never collide with exact entries — or with entries screened at a
// different rate.
func screenKey(key string, sampleShift uint32) string {
	return fmt.Sprintf("%s|s%d", key, sampleShift)
}

// cloneSummary deep-copies a behavioural summary.
func cloneSummary(s apps.Summary) apps.Summary {
	if s.Events != nil {
		events := make(map[string]int, len(s.Events))
		for k, v := range s.Events {
			events[k] = v
		}
		s.Events = events
	}
	return s
}

// cloneResult deep-copies the maps a Result carries so cached entries and
// the results handed to callers never alias.
func cloneResult(r Result) Result {
	r.Config.Knobs = r.Config.Knobs.Clone()
	r.Assign = r.Assign.Clone()
	r.Summary = cloneSummary(r.Summary)
	return r
}
