package explore

// Serializable job units and cache-delta plumbing for distributed
// campaigns (internal/distrib): a coordinator owns the deterministic
// job space, workers resolve leased JobSpecs against their local caches
// and a broadcast front, and everything flowing back — results and
// content-addressed compositional entries — merges into the
// coordinator's cache under the exact identities a single-process run
// would have used. The distributed layer adds no new semantics: a
// remote job goes through the same runJob resolution chain, a remote
// prune is proven against exact front members only, and the
// coordinator's final state is a warm cache any single-process rerun
// reproduces the report from bit-identically.

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/pareto"
)

// JobSpec is one serializable unit of distributed work: a combination
// index in the campaign's deterministic job space plus the full job
// identity. Guarded marks jobs the worker may settle with a dominance
// tombstone against the broadcast front (step-1 shards); unguarded
// jobs always resolve to exact vectors (step-2 shards, whose fronts
// are per-configuration and live only on the coordinator).
type JobSpec struct {
	Index   int
	Cfg     Config
	Assign  apps.Assignment
	Guarded bool
}

// JobOutcome is the worker's answer to one JobSpec. Err carries a
// simulation failure as text (error values do not cross the wire);
// the Result of a failed job is meaningless.
type JobOutcome struct {
	Index  int
	Result Result
	Err    string
}

// CampaignID renders everything two engines must agree on before one
// may resolve jobs for the other: the application, the exploration
// semantics (dominant-k, guard rules), the trace length,
// the platform and the address model. The simulation is deterministic,
// so matching IDs make remote results bit-identical to local ones.
func (e *Engine) CampaignID() string {
	return fmt.Sprintf("%s|%s|packets=%d|%+v|arenas=%v",
		e.app.Name(), e.exploreCtx, e.opts.packets(), e.opts.platformConfig(), e.opts.Arenas)
}

// PlanStep1 profiles the reference configuration and lays out the
// step-1 combination space: the dominant roles (in the order
// AssignForCombo decodes) and the space's size. This is exactly the
// planning prologue of Step1, so a distributed campaign leases the
// identical job space a single-process run would enumerate.
func (e *Engine) PlanStep1(ctx context.Context, ref Config) (dominant []string, total int, err error) {
	probes, err := e.Profile(ctx, ref)
	if err != nil {
		return nil, 0, err
	}
	dominant = probes.Dominant(e.opts.dominantK())
	total = 1
	for range dominant {
		total *= ddt.NumKinds
	}
	return dominant, total, nil
}

// AssignForCombo reconstructs the assignment of combination index
// combo over the dominant roles, in CombinationSeq order — the
// bijection that lets a coordinator re-derive any job of the step-1
// space from its index alone.
func (e *Engine) AssignForCombo(dominant []string, combo int) apps.Assignment {
	return assignFor(dominant, combo)
}

// RemoteGuard is the worker-side dominance guard for a leased shard:
// seeded with the coordinator's broadcast front (exact members only)
// and grown with the shard's own finished results, so remote bound
// pruning fires exactly as a single-process guard would. Pruning
// against any exact finished vector is sound regardless of staleness —
// dominance is transitive, so a member later displaced from the global
// front still proves its discards.
type RemoteGuard struct {
	g *frontGuard
}

// NewRemoteGuard builds a guard seeded with the broadcast front, or
// nil when this engine runs unguarded (no early abort, no bound
// pruning) and jobs resolve exactly anyway.
func (e *Engine) NewRemoteGuard(front []pareto.Point) *RemoteGuard {
	if !e.guarded() {
		return nil
	}
	g := newFrontGuard(e.opts.abortMargin())
	for _, p := range front {
		g.add(p)
	}
	return &RemoteGuard{g: g}
}

// ResolveJob resolves one leased job through the ordinary runJob chain
// — cache lookup, bound prune (guarded jobs), composition, replay,
// live capture — and feeds finished results back into the shard guard
// so later jobs of the same lease prune against them.
func (e *Engine) ResolveJob(spec JobSpec, rg *RemoteGuard) JobOutcome {
	var guard *frontGuard
	if spec.Guarded && rg != nil {
		guard = rg.g
	}
	o := e.runJob(spec.Index, Job{Cfg: spec.Cfg, Assign: spec.Assign}, guard)
	jo := JobOutcome{Index: spec.Index, Result: o.Result}
	if o.Err != nil {
		jo.Err = o.Err.Error()
		return jo
	}
	if guard != nil && !o.Result.Aborted {
		rg.g.add(o.Result.Point(spec.Index))
	}
	return jo
}

// CachedOutcome answers a job from the cache without running anything:
// the coordinator's warm pre-pass, which is what makes a killed
// coordinator's restart cheap — every job the crashed campaign settled
// (finished result or dominance tombstone under the identical
// exploration context) is settled again before any shard is leased.
func (e *Engine) CachedOutcome(spec JobSpec) (JobOutcome, bool) {
	if e.cache == nil {
		return JobOutcome{}, false
	}
	key := e.jobKey(spec.Cfg, spec.Assign)
	r, ok := e.cache.lookup(key, spec.Guarded && e.guarded(), e.exploreCtx)
	if !ok {
		return JobOutcome{}, false
	}
	return JobOutcome{Index: spec.Index, Result: r}, true
}

// AdmitOutcome merges one remote outcome into the cache under the
// job's identity key, tagged with this engine's exploration context —
// valid because lease admission already proved the worker's CampaignID
// identical. Admission is idempotent: the result of a job is
// deterministic, so duplicate admissions (an expired lease completed
// by two workers) overwrite an entry with an equal one.
func (e *Engine) AdmitOutcome(o JobOutcome) {
	if e.cache == nil || o.Err != "" {
		return
	}
	key := e.jobKey(o.Result.Config, o.Result.Assign)
	e.cache.store(key, o.Result, e.exploreCtx)
}

// JobKey returns the cache identity key a job's result settles under —
// the provenance handle a coordinator tracks unverified remote results
// by, and the argument InvalidateCached takes to wipe one.
func (e *Engine) JobKey(spec JobSpec) string {
	return e.jobKey(spec.Cfg, spec.Assign)
}

// InvalidateCached wipes the settled result or tombstone under a job
// identity key, reporting whether one was present — the repair a
// quarantine applies to every result the lying worker reported that
// was never verified.
func (e *Engine) InvalidateCached(key string) bool {
	if e.cache == nil {
		return false
	}
	return e.cache.invalidate(key)
}

// OutcomeMatchesSpec reports whether a remote outcome claims the
// identity of the job it was leased: same index, configuration and
// assignment. AdmitOutcome files results under the identity the result
// itself claims, so without this check a malicious report could poison
// a different job's cache entry; a mismatch is proof of a broken or
// lying worker with no re-execution needed.
func OutcomeMatchesSpec(spec JobSpec, o JobOutcome) bool {
	if o.Index != spec.Index {
		return false
	}
	if o.Err != "" {
		return true // a failure report carries no result identity to check
	}
	r := o.Result
	if r.Config.String() != spec.Cfg.String() {
		return false
	}
	if len(r.Assign) != len(spec.Assign) {
		return false
	}
	for role, kind := range spec.Assign {
		if got, ok := r.Assign[role]; !ok || got != kind {
			return false
		}
	}
	return true
}

// ResolveJobLive resolves a job by pure live simulation: no cache
// lookup, no guard, no composition from cached lanes, no capture. This
// is the coordinator's verification oracle — everything it consumes
// (the built-in trace generator, the platform model) is local and
// trusted, so the result is ground truth even while the cache holds
// entries shipped by the very worker under suspicion. Replay and
// composition are pinned bit-exact against live simulation, so an
// honest remote exact result compares equal no matter which path the
// worker resolved it through.
func (e *Engine) ResolveJobLive(spec JobSpec) JobOutcome {
	jo := JobOutcome{Index: spec.Index}
	tr, err := loadTrace(spec.Cfg.TraceName, e.opts.packets())
	if err != nil {
		jo.Err = err.Error()
		return jo
	}
	p := newPlatform(e.app, e.opts)
	sum, aborted, err := runRecovering(e.app, tr, p, spec.Assign, spec.Cfg.Knobs)
	if err != nil {
		jo.Err = fmt.Sprintf("explore: %s on %s: %v", e.app.Name(), spec.Cfg, err)
		return jo
	}
	jo.Result = Result{
		App:     e.app.Name(),
		Config:  spec.Cfg,
		Assign:  spec.Assign,
		Vec:     p.Metrics(),
		Summary: sum,
		Aborted: aborted,
	}
	return jo
}

// SettleExternal advances the settled-job watermark for n jobs settled
// by an external campaign driver (a distributed coordinator merging
// remote results), firing periodic checkpoints exactly as the engine's
// own steps do. front snapshots the campaign's survivor front;
// dist snapshots the distributed bookkeeping carried in the
// checkpoint. Either may be nil.
func (e *Engine) SettleExternal(n int64, step int, front func() []pareto.Point, dist func() *DistState) {
	e.noteSettled(n, ckptScope{step: step, front: front, dist: dist})
}

// CheckpointExternal fires an immediate (non-terminal) checkpoint with
// the given snapshots — the cancellation-path twin of SettleExternal,
// mirroring what the streaming steps do when their context dies.
func (e *Engine) CheckpointExternal(step int, front func() []pareto.Point, dist func() *DistState) {
	e.fireCheckpoint(ckptScope{step: step, front: front, dist: dist}, false)
}

// DeltaCursor remembers which compositional cache entries have already
// been exported, so a worker streams each lane and schedule to the
// coordinator exactly once per campaign.
type DeltaCursor struct {
	lanes, scheds map[string]bool
}

// NewDeltaCursor returns a cursor that has exported nothing.
func NewDeltaCursor() *DeltaCursor {
	return &DeltaCursor{
		lanes:  make(map[string]bool),
		scheds: make(map[string]bool),
	}
}

// CacheDelta is the content-addressed compositional payload a worker
// ships alongside its results: per-(role, kind) lanes and
// per-configuration schedules, lanes in their serialized form, keyed by
// the same platform-invariant identities the cache stores them under —
// which is what lets the coordinator dedupe entries two workers
// captured independently.
type CacheDelta struct {
	Lanes  map[string]*astream.SubStream
	Scheds map[string]schedWire
}

// Len reports how many entries the delta carries.
func (d *CacheDelta) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Lanes) + len(d.Scheds)
}

// ExportDelta snapshots every compositional entry not yet
// exported through cur, advancing the cursor. Decoded lanes are encoded
// afresh; encoded ones and schedules are shared, not copied — they are
// immutable once stored. Returns nil when nothing new accumulated.
func (c *Cache) ExportDelta(cur *DeltaCursor) *CacheDelta {
	d := &CacheDelta{Lanes: wireLanes(c.lanes.export(c, cur.lanes)), Scheds: wireScheds(c.scheds.export(c, cur.scheds))}
	if d.Len() == 0 {
		return nil
	}
	return d
}

// MergeDelta puts a worker's delta into the cache (budget accounting
// and partial drops apply), the first entry under a key winning, and
// reports how many entries were new versus already present — the
// dedup the content-addressed keys buy. It counts no cache traffic.
func (c *Cache) MergeDelta(d *CacheDelta) (added, dup int) {
	if d == nil {
		return 0, 0
	}
	added = c.lanes.putAll(c, laneEntries(d.Lanes), true) + c.scheds.putAll(c, schedEntries(d.Scheds), true)
	return added, d.Len() - added
}
