package explore

import (
	"fmt"
	"io"
	"maps"
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
//   - lane sub-streams, one per (role, kind), and schedules, one per
//     configuration (arena-model engines): any combination whose K lanes
//     are all present is served by composed replay, so ~10·K lanes stand
//     in for the 10^K whole-run streams a flat capture would need;
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
//	tier              size                admits    put over a key  evicted  saved
//	sampled profiles  SizeBytes           non-nil   Merge           1st      no
//	streams           stream SizeBytes    complete  new value       2nd      yes
//	lanes             SizeBytes           complete  new value       3rd      yes
//	reuse profiles    SizeBytes           non-nil   Merge           4th      yes
//	schedules         schedule + ambient  complete  first value     never*   yes
//
// A partial (aborted) capture proves nothing about the full run, so it is
// never stored. Eviction is oldest first within a tier and only costs a
// potential re-execution later; *a non-positive budget empties every
// tier, schedules included, and a shared-heap engine on it captures no
// streams. The decoded struct-of-arrays form of each lane and of each
// schedule's ambient lane is memoized beside it (unpackedLane), charged
// to the budget and dropped with its entry, so composition decodes a
// lane once rather than once per combination; the
// decoded form also memoizes the lane's isolated suffix tables, from
// which the bound-guided search derives its lane bounds. Each schedule
// entry memoizes the exact composed footprint peaks of the combinations
// asked about (composedPeak). Dominance profiles, whose per-role
// attribution is platform-invariant, are memoized outside the budget, so
// a sweep profiles each network configuration once.
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

	// sm guards the tiers and the decoded-lane memo, whose bytes
	// together make streamBytes.
	sm           sync.RWMutex
	streamBytes  int64
	streamBudget int64
	streams      tier[streamEntry, streamPolicy]
	lanes        tier[*astream.SubStream, lanePolicy]
	scheds       tier[schedEntry, schedPolicy]
	rprofiles    tier[*memsim.ReuseProfile, profilePolicy]
	sprofiles    tier[*memsim.ReuseProfile, profilePolicy]
	unpacked     map[string]*astream.UnpackedLane

	// ckpt is the latest campaign checkpoint — settled-job watermark,
	// survivor front, stats — persisted as its own section so an
	// interrupted run resumes with its reporting state, not just its
	// memoized results.
	ckpt atomic.Pointer[Checkpoint]

	hits, misses                            atomic.Uint64
	streamTraffic, laneTraffic, profTraffic traffic
}

// cacheEntry is one memoized simulation. Ctx tags tombstones with the
// exploration semantics (dominant-k, abort margin, bound
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
// run that is DDT-invariant: the ambient lane's sub-stream and the
// behavioural summary (the refinement never changes functionality, so
// one summary serves every combination of the same configuration).
// peaks is runtime-only (unexported, so never persisted): see
// composedPeak.
type schedEntry struct {
	Sched   *astream.Schedule
	Ambient *astream.SubStream
	Summary apps.Summary
	peaks   *peakMemo
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

func (lanePolicy) size(s *astream.SubStream) int64                         { return int64(s.SizeBytes()) }
func (lanePolicy) admit(s *astream.SubStream) bool                         { return s != nil && !s.Partial }
func (lanePolicy) keep(_, s *astream.SubStream, _ bool) *astream.SubStream { return s }
func (lanePolicy) traffic(c *Cache) *traffic                               { return &c.laneTraffic }

func (schedPolicy) size(e schedEntry) int64 {
	return int64(e.Sched.SizeBytes() + e.Ambient.SizeBytes())
}
func (schedPolicy) admit(e schedEntry) bool {
	return e.Sched != nil && e.Ambient != nil && !e.Ambient.Partial
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
	if tr := p.traffic(c); ok {
		tr.hits.Add(1)
	} else {
		tr.misses.Add(1)
	}
	return v, ok
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

// evict drops the tier's oldest entries, each with its decoded form,
// while the cache is over its budget — all of them under a non-positive
// budget. Called with sm held.
func (t *tier[V, P]) evict(c *Cache) {
	var p P
	for len(t.order) > 0 && (c.streamBudget <= 0 || c.streamBytes > c.streamBudget) {
		key := t.order[0]
		t.order = t.order[1:]
		c.streamBytes -= p.size(t.m[key])
		delete(t.m, key)
		if u, ok := c.unpacked[key]; ok {
			c.streamBytes -= int64(u.SizeBytes())
			delete(c.unpacked, key)
		}
	}
	if len(t.order) == 0 {
		t.order = nil
	}
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
//  3. lane sub-streams;
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

// DefaultStreamBudget bounds the encoded bytes of retained access
// streams: generous enough to hold a full step-1 combination space at
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
// schedules, reuse profiles and decoded lanes — and keeps them empty,
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
	StreamBytes                int64 // retained bytes: encoded streams/lanes/schedules + memoized decoded lanes + reuse profiles
	StreamHits, StreamMisses   uint64
	Lanes                      int // retained per-(role, kind) lane sub-streams
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

// unpackedLane returns the memoized decoded form of the lane stored
// under key, decoding it once on demand. sub must be the sub-stream the
// key resolves to. ambient marks the schedule's ambient lane, whose key
// is a schedule key rather than a lane key.
func (c *Cache) unpackedLane(key string, sub *astream.SubStream, ambient bool) (*astream.UnpackedLane, bool) {
	c.sm.RLock()
	u, ok := c.unpacked[key]
	c.sm.RUnlock()
	if ok {
		return u, true
	}
	u, err := sub.Unpack()
	if err != nil {
		return nil, false
	}
	c.sm.Lock()
	if exist, ok := c.unpacked[key]; ok {
		u = exist // another goroutine won the decode race
	} else {
		// Only memoize while the backing entry is retained, so evicting
		// it cannot strand its decoded form. Decoded bytes count against
		// the budget like their encoded backing.
		_, live := c.lanes.m[key]
		if ambient {
			_, live = c.scheds.m[key]
		}
		if live {
			if c.unpacked == nil {
				c.unpacked = make(map[string]*astream.UnpackedLane)
			}
			c.unpacked[key] = u
			c.streamBytes += int64(u.SizeBytes())
			c.evictLocked()
		}
	}
	c.sm.Unlock()
	return u, true
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

// hasLanes reports whether the schedule under ck and every lane
// assign composes from are held, without touching the hit/miss
// counters.
func (c *Cache) hasLanes(ck *cfgKeys, assign apps.Assignment) bool {
	c.sm.RLock()
	defer c.sm.RUnlock()
	e, ok := c.scheds.m[ck.sched]
	if !ok {
		return false
	}
	for _, role := range e.Sched.Roles {
		if _, ok := c.lanes.m[ck.lane(role, apps.KindFor(assign, role))]; !ok {
			return false
		}
	}
	return true
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
// streams — whole-run streams, per-(role, kind) lane sub-streams and
// schedules — so a later process can replay new platform points or
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
