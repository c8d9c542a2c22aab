package explore

import (
	"fmt"
	"io"
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
// Beside finished results the cache holds two platform-invariant stores
// keyed by the simulation identity *minus* the platform configuration:
//
//   - Access streams (internal/astream): the word-access stream of an
//     executed simulation, captured once. Any other platform point for
//     the same (app, config, packets, assignment) is then served by
//     replaying the stream instead of re-running the application — the
//     capture-once / replay-many fast path of multi-platform sweeps.
//     Streams are byte-budgeted (SetStreamBudget); eviction only costs a
//     potential re-execution later. A cache with a non-positive budget
//     keeps no streams, and its engines capture none. Partial streams
//     (from aborted captures) are dropped, never stored.
//   - Profiles: dominance profiling attributes accesses per container
//     role, which is platform-invariant, so a sweep profiles each
//     network configuration once rather than once per platform point.
//   - Compositional stores (arena-model engines): per-(role, kind) lane
//     sub-streams and per-configuration operation schedules, keyed by
//     the DDT-invariant run identity. Any combination whose K lanes are
//     all present is served by composed replay; ~10·K lanes stand in
//     for the 10^K whole-run streams a flat capture would need. Each
//     lane's decoded struct-of-arrays form is memoized at runtime so
//     composition decodes a lane once, not once per combination. The
//     decoded form also memoizes the lane's isolated suffix tables,
//     from which the bound-guided search derives its lane bounds, and
//     each schedule entry memoizes the exact composed footprint peak of
//     the combinations asked about (see composedPeak).
//
// Aborted results are stored as dominance tombstones: the partial vector
// plus the proof (by construction) that an identical exploration already
// found the point dominated. Guarded exploration streams accept them and
// skip the re-simulation; unguarded callers (Engine.Simulate) treat them
// as misses and overwrite them with the full result. A Cache is safe for
// concurrent use and may be shared between engines.
type Cache struct {
	mu sync.RWMutex
	m  map[string]cacheEntry

	sm           sync.RWMutex
	streams      map[string]streamEntry
	streamOrder  []string // insertion order, for budget eviction
	streamBytes  int64
	streamBudget int64

	// Compositional stores (also guarded by sm, counted against the
	// stream budget): per-(role, kind) lane sub-streams and per-
	// configuration schedules. unpacked memoizes each lane's decoded
	// struct-of-arrays form — derived data, rebuilt on demand and
	// dropped with its lane, so composition decodes each lane once per
	// process instead of once per combination.
	lanes     map[string]*astream.SubStream
	laneOrder []string
	scheds    map[string]schedEntry
	unpacked  map[string]*astream.UnpackedLane

	// Reuse profiles (also guarded by sm, counted against the stream
	// budget): per-(identity, line size) stack-distance histograms from
	// all-geometry replay passes (memsim.ReuseProfile). A covered
	// platform point is then pure arithmetic — no stream decode, no
	// probes — so they are evicted only after every stream and lane,
	// being both tiny and the cheapest path to a result.
	rprofiles  map[string]*memsim.ReuseProfile
	rprofOrder []string

	// Sampled reuse profiles (also guarded by sm, counted against the
	// stream budget): the rate-tagged estimates a screening replay
	// leaves behind, keyed like reuse profiles plus the sample shift
	// (screenKey) so they can never answer an exact lookup. Cheap
	// screening artifacts, rebuildable by one sampled replay: evicted
	// FIRST, and never persisted by SaveWithStreams.
	sprofiles  map[string]*memsim.ReuseProfile
	sprofOrder []string

	pm       sync.Mutex
	profiles map[string]*profiler.Set

	// Campaign checkpoint (own mutex): the latest engine snapshot —
	// settled-job watermark, survivor front, stats — persisted as its
	// own section so an interrupted run resumes with its reporting
	// state, not just its memoized results.
	ckMu sync.Mutex
	ckpt *Checkpoint

	hits, misses             atomic.Uint64
	streamHits, streamMisses atomic.Uint64
	laneHits, laneMisses     atomic.Uint64
	rprofHits, rprofMisses   atomic.Uint64
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

// sizeBytes reports the entry's retained bytes for the stream budget.
func (e schedEntry) sizeBytes() int64 {
	return int64(e.Sched.SizeBytes() + e.Ambient.SizeBytes())
}

// DefaultStreamBudget bounds the encoded bytes of retained access
// streams: generous enough to hold a full step-1 combination space at
// benchmark scale, small enough to keep multi-application sweeps from
// growing without bound.
const DefaultStreamBudget = 256 << 20

// NewCache returns an empty simulation cache.
func NewCache() *Cache {
	return &Cache{
		m:            make(map[string]cacheEntry),
		streams:      make(map[string]streamEntry),
		lanes:        make(map[string]*astream.SubStream),
		scheds:       make(map[string]schedEntry),
		unpacked:     make(map[string]*astream.UnpackedLane),
		rprofiles:    make(map[string]*memsim.ReuseProfile),
		sprofiles:    make(map[string]*memsim.ReuseProfile),
		streamBudget: DefaultStreamBudget,
	}
}

// SetStreamBudget overrides the byte budget for retained access streams.
// A non-positive budget disables stream retention entirely — whole-run
// streams, lanes, schedules and reuse profiles — and a shared-heap
// engine on such a cache captures no streams at all.
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
	n := len(c.m)
	c.mu.RUnlock()
	c.sm.RLock()
	ns, nb := len(c.streams), c.streamBytes
	nl, nsch := len(c.lanes), len(c.scheds)
	np, nsp := len(c.rprofiles), len(c.sprofiles)
	c.sm.RUnlock()
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n,
		Streams: ns, StreamBytes: nb,
		StreamHits: c.streamHits.Load(), StreamMisses: c.streamMisses.Load(),
		Lanes: nl, Schedules: nsch,
		LaneHits: c.laneHits.Load(), LaneMisses: c.laneMisses.Load(),
		ReuseProfiles: np,
		ProfileHits:   c.rprofHits.Load(), ProfileMisses: c.rprofMisses.Load(),
		SampledProfiles: nsp,
	}
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

// lookupStream returns the captured stream for the platform-invariant
// key, with a defensive copy of its summary.
func (c *Cache) lookupStream(key string) (*astream.Stream, apps.Summary, bool) {
	c.sm.RLock()
	e, ok := c.streams[key]
	c.sm.RUnlock()
	if !ok {
		c.streamMisses.Add(1)
		return nil, apps.Summary{}, false
	}
	c.streamHits.Add(1)
	return e.Stream, cloneSummary(e.Summary), true
}

// storeStream retains a captured stream under the platform-invariant
// key. Partial streams are dropped, as storeLane drops partial lanes:
// the recorded prefix of an aborted run proves nothing about the full
// run. Budget overflow evicts the oldest streams first (a pure
// performance loss, never a correctness one). Streams are immutable
// once stored.
func (c *Cache) storeStream(key string, e streamEntry) {
	if e.Stream.Partial {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.streams[key]; ok {
		c.streamBytes -= int64(old.Stream.SizeBytes())
	} else {
		c.streamOrder = append(c.streamOrder, key)
	}
	e.Cfg.Knobs = e.Cfg.Knobs.Clone()
	e.Assign = e.Assign.Clone()
	e.Summary = cloneSummary(e.Summary)
	c.streams[key] = e
	c.streamBytes += int64(e.Stream.SizeBytes())
	c.evictLocked()
}

// lookupLane returns the lane sub-stream for a (role, kind) key.
func (c *Cache) lookupLane(key string) (*astream.SubStream, bool) {
	c.sm.RLock()
	s, ok := c.lanes[key]
	c.sm.RUnlock()
	if !ok {
		c.laneMisses.Add(1)
		return nil, false
	}
	c.laneHits.Add(1)
	return s, true
}

// storeLane retains one (role, kind) lane sub-stream. Partial lanes are
// dropped outright: a lane from an aborted capture proves nothing.
func (c *Cache) storeLane(key string, s *astream.SubStream) {
	if s.Partial {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.lanes[key]; ok {
		c.streamBytes -= int64(old.SizeBytes())
	} else {
		c.laneOrder = append(c.laneOrder, key)
	}
	c.lanes[key] = s
	c.streamBytes += int64(s.SizeBytes())
	c.evictLocked()
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
		// a lane cannot strand its decoded form. Decoded bytes count
		// against the stream budget like their encoded backing.
		_, live := c.lanes[key]
		if ambient {
			_, live = c.scheds[key]
		}
		if live {
			c.unpacked[key] = u
			c.streamBytes += int64(u.SizeBytes())
			c.evictLocked()
		}
	}
	c.sm.Unlock()
	return u, true
}

// lookupReuseProfile returns the reuse profile for a (platform-
// invariant identity, line size) key. Profiles are shared, not copied:
// a memsim.ReuseProfile is immutable once stored.
func (c *Cache) lookupReuseProfile(key string) *memsim.ReuseProfile {
	c.sm.RLock()
	p := c.rprofiles[key]
	c.sm.RUnlock()
	if p == nil {
		c.rprofMisses.Add(1)
		return nil
	}
	c.rprofHits.Add(1)
	return p
}

// storeReuseProfile retains one reuse profile under the stream budget.
// A later profile for the same key is merged with the earlier one
// (memsim.ReuseProfile.Merge), so a pass over a narrower family can
// never shrink an identity's accumulated coverage.
func (c *Cache) storeReuseProfile(key string, p *memsim.ReuseProfile) {
	if p == nil {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.rprofiles[key]; ok {
		c.streamBytes -= int64(old.SizeBytes())
		p = p.Merge(old)
	} else {
		c.rprofOrder = append(c.rprofOrder, key)
	}
	c.rprofiles[key] = p
	c.streamBytes += int64(p.SizeBytes())
	c.evictLocked()
}

// lookupSampledProfile returns the rate-tagged sampled reuse profile
// for a screenKey-wrapped (identity, line size) key. Shared, not
// copied: immutable once stored.
func (c *Cache) lookupSampledProfile(key string) *memsim.ReuseProfile {
	c.sm.RLock()
	p := c.sprofiles[key]
	c.sm.RUnlock()
	if p == nil {
		c.rprofMisses.Add(1)
		return nil
	}
	c.rprofHits.Add(1)
	return p
}

// storeSampledProfile retains one sampled reuse profile under the
// stream budget, merging with any earlier profile for the key exactly
// as storeReuseProfile does (sampled passes of the same stream at the
// same rate agree wherever they overlap — the hash filter is
// deterministic).
func (c *Cache) storeSampledProfile(key string, p *memsim.ReuseProfile) {
	if p == nil {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.sprofiles[key]; ok {
		c.streamBytes -= int64(old.SizeBytes())
		p = p.Merge(old)
	} else {
		c.sprofOrder = append(c.sprofOrder, key)
	}
	c.sprofiles[key] = p
	c.streamBytes += int64(p.SizeBytes())
	c.evictLocked()
}

// composedPeak returns the exact composed footprint peak of the
// combination whose role kinds, in schedule-role order, are key
// (peakKey), memoized on the schedule entry under sk. walk computes it
// on the first request (astream.ComposedPeak over the combination's
// lanes); a failed walk is not memoized. Footprint is platform-
// invariant, so every engine sharing the cache reads one walk per
// combination. The memo is allocated on first use; its entries are a
// few words each and are not charged against the stream budget.
func (c *Cache) composedPeak(sk string, key []byte, walk func() (uint64, bool)) (uint64, bool) {
	c.sm.RLock()
	e, ok := c.scheds[sk]
	c.sm.RUnlock()
	if !ok {
		return walk()
	}
	pm := e.peaks
	if pm == nil {
		c.sm.Lock()
		if e, ok = c.scheds[sk]; ok && e.peaks == nil {
			e.peaks = &peakMemo{}
			c.scheds[sk] = e
		}
		pm = e.peaks
		c.sm.Unlock()
		if pm == nil {
			return walk()
		}
	}
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

// lookupSchedule returns the DDT-invariant schedule entry (operation
// schedule, ambient lane, summary) for a configuration key.
func (c *Cache) lookupSchedule(key string) (*astream.Schedule, *astream.SubStream, apps.Summary, bool) {
	c.sm.RLock()
	e, ok := c.scheds[key]
	c.sm.RUnlock()
	if !ok {
		c.laneMisses.Add(1)
		return nil, nil, apps.Summary{}, false
	}
	c.laneHits.Add(1)
	return e.Sched, e.Ambient, cloneSummary(e.Summary), true
}

// hasLanes reports whether the schedule under ck and every lane
// assign composes from are held, without touching the hit/miss
// counters.
func (c *Cache) hasLanes(ck *cfgKeys, assign apps.Assignment) bool {
	c.sm.RLock()
	defer c.sm.RUnlock()
	e, ok := c.scheds[ck.sched]
	if !ok {
		return false
	}
	for _, role := range e.Sched.Roles {
		if _, ok := c.lanes[ck.lane(role, apps.KindFor(assign, role))]; !ok {
			return false
		}
	}
	return true
}

// storeSchedule retains a configuration's schedule entry. The schedule
// is DDT-invariant, so the first complete capture of a configuration
// wins and later stores are no-ops. Schedules are charged against the
// stream budget but never evicted: without one, every lane of its
// configuration is useless.
func (c *Cache) storeSchedule(key string, e schedEntry) {
	if e.Ambient.Partial {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if _, ok := c.scheds[key]; ok {
		return
	}
	e.Summary = cloneSummary(e.Summary)
	e.peaks = nil // an entry merged from another cache starts its own memo
	c.scheds[key] = e
	c.streamBytes += e.sizeBytes()
	c.evictLocked()
}

// streamEntries snapshots the retained streams.
func (c *Cache) streamEntries() []streamEntry {
	c.sm.RLock()
	defer c.sm.RUnlock()
	out := make([]streamEntry, 0, len(c.streams))
	for _, e := range c.streams {
		out = append(out, e)
	}
	return out
}

// has reports whether a finished (non-tombstone) result exists for key,
// without touching the hit/miss counters.
func (c *Cache) has(key string) bool {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	return ok && !e.Result.Aborted
}

// evictLocked drops retained stream data until the budget holds, in a
// fixed tier order, oldest first within each tier:
//
//  1. sampled reuse profiles — screening estimates, the cheapest
//     artifacts in the cache (one sampled replay rebuilds one) and the
//     only approximate ones;
//  2. whole streams — each is one simulation point (a lane serves
//     10^(K-1) combinations);
//  3. lane sub-streams;
//  4. reuse profiles — a profile is a few KB that answers a whole
//     geometry cross product with zero probes, so it outlives the
//     streams it summarizes.
//
// Schedules stay — they are small and every lane of their configuration
// depends on them. The order is asserted by TestCacheEvictionOrder.
// Called with sm held.
func (c *Cache) evictLocked() {
	for c.streamBytes > c.streamBudget && len(c.sprofOrder) > 0 {
		key := c.sprofOrder[0]
		c.sprofOrder = c.sprofOrder[1:]
		if p, ok := c.sprofiles[key]; ok {
			c.streamBytes -= int64(p.SizeBytes())
			delete(c.sprofiles, key)
		}
	}
	for c.streamBytes > c.streamBudget && len(c.streamOrder) > 0 {
		key := c.streamOrder[0]
		c.streamOrder = c.streamOrder[1:]
		if e, ok := c.streams[key]; ok {
			c.streamBytes -= int64(e.Stream.SizeBytes())
			delete(c.streams, key)
		}
	}
	for c.streamBytes > c.streamBudget && len(c.laneOrder) > 0 {
		key := c.laneOrder[0]
		c.laneOrder = c.laneOrder[1:]
		if s, ok := c.lanes[key]; ok {
			c.streamBytes -= int64(s.SizeBytes())
			delete(c.lanes, key)
			if u, ok := c.unpacked[key]; ok {
				c.streamBytes -= int64(u.SizeBytes())
				delete(c.unpacked, key)
			}
		}
	}
	for c.streamBytes > c.streamBudget && len(c.rprofOrder) > 0 {
		key := c.rprofOrder[0]
		c.rprofOrder = c.rprofOrder[1:]
		if p, ok := c.rprofiles[key]; ok {
			c.streamBytes -= int64(p.SizeBytes())
			delete(c.rprofiles, key)
		}
	}
	if len(c.streamOrder) == 0 {
		c.streamOrder = nil
	}
	if len(c.laneOrder) == 0 {
		c.laneOrder = nil
	}
	if len(c.rprofOrder) == 0 {
		c.rprofOrder = nil
	}
	if len(c.sprofOrder) == 0 {
		c.sprofOrder = nil
	}
}

// lookupProfile returns the memoized dominance profile for the platform-
// invariant key. Profiles are shared, not copied: a profiler.Set is
// effectively immutable once the profiling run finishes.
func (c *Cache) lookupProfile(key string) *profiler.Set {
	c.pm.Lock()
	defer c.pm.Unlock()
	return c.profiles[key]
}

// storeProfile memoizes a dominance profile.
func (c *Cache) storeProfile(key string, p *profiler.Set) {
	c.pm.Lock()
	if c.profiles == nil {
		c.profiles = make(map[string]*profiler.Set)
	}
	c.profiles[key] = p
	c.pm.Unlock()
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
