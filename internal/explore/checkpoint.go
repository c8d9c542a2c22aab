package explore

import (
	"repro/internal/pareto"
)

// Checkpoint is one durable campaign snapshot: enough state for an
// interrupted exploration to resume — and prove it resumed — without
// re-executing anything the crashed run already settled. The heavy
// state (finished results, dominance and subtree-cut tombstones,
// lanes, profiles) lives in the cache's ordinary sections and is what
// actually makes resumption cheap; the checkpoint carries the campaign
// bookkeeping on top: the settled-job watermark, the survivor front at
// the snapshot, and the engine's work counters.
//
// Resumption is a warm re-run: job spaces are deterministic, finished
// results and tombstones answer every settled job from the cache, and
// the survivor front rebuilds bit-identical in membership (a
// tombstone's dominator is always a finished, cached, never-evicted
// result, so dominance transitivity carries every discard proof across
// the restart). The checkpoint's Ctx pins the exploration semantics
// the snapshot was taken under — a resume under different pruning
// rules is a cold run by design, exactly as tombstone reuse is gated.
type Checkpoint struct {
	// App and Ctx identify the campaign: the application name and the
	// engine's exploration context (dominant-k, early
	// abort, bound pruning). A checkpoint only describes resumption
	// for an engine with the identical context.
	App string
	Ctx string
	// Step is the methodology step the snapshot was taken in (1 or 2;
	// 0 for a terminal snapshot).
	Step int
	// Settled is the watermark: jobs settled so far across the
	// campaign — every delivered outcome (simulated, replayed,
	// composed, cache-hit, aborted, individually pruned) plus the full
	// leaf width of every branch-and-bound subtree cut.
	Settled int64
	// Front is the survivor front at the snapshot (step 1's online
	// front; step-2 snapshots keep the step-1 survivor front, since
	// step-2 fronts are per-configuration and rebuild from cache).
	Front []pareto.Point
	// Stats are the engine work counters at the snapshot.
	Stats EngineStats
	// Dist carries distributed-campaign bookkeeping when the snapshot
	// was taken by a coordinator: per-worker lease and cache-entry
	// tallies. Nil for single-process campaigns; resumption never
	// depends on it — the cache's results and tombstones are the
	// durable state, Dist is accounting that survives the restart.
	Dist *DistState
	// Done marks a terminal checkpoint: the campaign ran to
	// completion, so a warm rerun reports full coverage instead of
	// resuming.
	Done bool
}

// DistState is the distributed-campaign slice of a checkpoint: which
// workers have participated and what each contributed. The shard
// queue itself is not persisted — the job space is deterministic, so a
// restarted coordinator re-derives unsettled work from the cache.
type DistState struct {
	// Workers maps worker IDs to their cumulative tallies.
	Workers map[string]DistWorkerStats
	// Unverified maps the cache identity keys of remotely settled
	// results the coordinator never re-executed to the worker that
	// reported them — the provenance a quarantine uses to find and
	// invalidate everything a lying worker ever contributed. Persisted
	// so the trust boundary survives coordinator restarts: a resumed
	// campaign re-admits unverified results with their provenance
	// intact, and wipes any that belong to a worker quarantined before
	// the crash.
	Unverified map[string]string
	// Invalidated counts settled results wiped back into the queue by
	// quarantines; Recovered counts jobs the coordinator settled from
	// its own verification re-execution after catching a mismatch.
	Invalidated, Recovered int64
}

// DistWorkerStats tallies one worker's participation in a distributed
// campaign.
type DistWorkerStats struct {
	// Leased / Completed / Expired count shard leases granted to,
	// settled by, and reaped from this worker. Reassigned counts
	// shards this worker received that a previous lease had lost.
	Leased, Completed, Expired, Reassigned int64
	// EntriesReceived / EntriesDeduped count compositional cache
	// entries (lanes, schedules) the worker shipped,
	// split by whether the coordinator already held the identity.
	EntriesReceived, EntriesDeduped int64
	// JobsSettled counts individual jobs this worker's reports settled
	// first; JobsRequeued counts jobs returned to the queue on its
	// account — partial reports, expired leases, quarantine reaps.
	JobsSettled, JobsRequeued int64
	// Verified / Mismatched count this worker's results the coordinator
	// re-executed locally: cross-checked bit-exact, or caught wrong.
	Verified, Mismatched int64
	// HedgesFired counts speculative re-leases placed against this
	// worker's slow shards; HedgesWon counts hedged shards where this
	// worker (holding the hedge) settled work first.
	HedgesFired, HedgesWon int64
	// Quarantined marks a worker caught reporting a wrong result: its
	// leases were reaped, its unverified results invalidated, and it is
	// refused further participation in the campaign.
	Quarantined bool
}

// Clone returns a deep copy of the state (nil-safe).
func (d *DistState) Clone() *DistState {
	if d == nil {
		return nil
	}
	c := &DistState{
		Workers:     make(map[string]DistWorkerStats, len(d.Workers)),
		Invalidated: d.Invalidated,
		Recovered:   d.Recovered,
	}
	for k, v := range d.Workers {
		c.Workers[k] = v
	}
	if d.Unverified != nil {
		c.Unverified = make(map[string]string, len(d.Unverified))
		for k, v := range d.Unverified {
			c.Unverified[k] = v
		}
	}
	return c
}

// SetCheckpoint stores a defensive copy of ck as the cache's campaign
// checkpoint; SaveFile persists it as its own section.
func (c *Cache) SetCheckpoint(ck Checkpoint) {
	ck.Front = append([]pareto.Point(nil), ck.Front...)
	ck.Dist = ck.Dist.Clone()
	c.ckpt.Store(&ck)
}

// Checkpoint returns a copy of the cache's campaign checkpoint, if one
// has been recorded (or loaded).
func (c *Cache) Checkpoint() (Checkpoint, bool) {
	p := c.ckpt.Load()
	if p == nil {
		return Checkpoint{}, false
	}
	ck := *p
	ck.Front = append([]pareto.Point(nil), ck.Front...)
	ck.Dist = ck.Dist.Clone()
	return ck, true
}

// ckptScope is the step-local context a step threads into settled
// accounting: which methodology step is running and how to snapshot
// its survivor front (and, for distributed campaigns, the coordinator
// bookkeeping). Checkpoints fire on the goroutine that runs the step, so
// front() needs no synchronization beyond the guard's.
type ckptScope struct {
	step  int
	front func() []pareto.Point
	dist  func() *DistState
}

// Settled returns the engine's settled-job watermark: delivered
// outcomes plus bulk subtree-cut widths, across all steps so far.
func (e *Engine) Settled() int64 { return e.settled.Load() }

// ExploreContext returns the engine's exploration-semantics tag — the
// string checkpoints and dominance tombstones are pinned to.
func (e *Engine) ExploreContext() string { return e.exploreCtx }

// LastCheckpoint returns the most recent checkpoint this engine fired.
func (e *Engine) LastCheckpoint() (Checkpoint, bool) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.lastCkpt == nil {
		return Checkpoint{}, false
	}
	ck := *e.lastCkpt
	ck.Front = append([]pareto.Point(nil), ck.Front...)
	ck.Dist = ck.Dist.Clone()
	return ck, true
}

// noteSettled advances the watermark by n settled jobs and fires a
// checkpoint when the total crosses a multiple of
// Options.CheckpointEvery. Called from step goroutines only (one
// per running step), so checkpoint assembly never races a guard
// mutation from its own step.
func (e *Engine) noteSettled(n int64, sc ckptScope) {
	total := e.settled.Add(n)
	every := int64(e.opts.CheckpointEvery)
	if every <= 0 {
		return
	}
	if total/every != (total-n)/every {
		e.fireCheckpoint(sc, false)
	}
}

// fireCheckpoint assembles a snapshot, records it in the cache and the
// engine, and invokes the Options.Checkpoint callback (which typically
// persists the cache file). A scope without a front snapshot keeps the
// previous checkpoint's front, so step-2 checkpoints preserve the
// step-1 survivor front.
func (e *Engine) fireCheckpoint(sc ckptScope, done bool) {
	ck := Checkpoint{
		App:     e.app.Name(),
		Ctx:     e.exploreCtx,
		Step:    sc.step,
		Settled: e.settled.Load(),
		Stats:   e.Stats(),
		Done:    done,
	}
	prev, hasPrev := e.LastCheckpoint()
	if sc.front != nil {
		ck.Front = sc.front()
	} else if hasPrev {
		ck.Front = prev.Front
	}
	if sc.dist != nil {
		ck.Dist = sc.dist()
	} else if hasPrev {
		ck.Dist = prev.Dist
	}
	e.ckptMu.Lock()
	cp := ck
	e.lastCkpt = &cp
	e.ckptMu.Unlock()
	if e.cache != nil {
		e.cache.SetCheckpoint(ck)
	}
	if e.opts.Checkpoint != nil {
		e.opts.Checkpoint(ck)
	}
}

// FinishCampaign records the terminal checkpoint after a campaign ran
// to completion: Done set, the final stats, and the last step's front
// carried over. Callers persist the cache afterwards, so an
// interrupted FOLLOWING run can tell a finished campaign from one
// still mid-flight.
func (e *Engine) FinishCampaign() {
	e.fireCheckpoint(ckptScope{}, true)
}
