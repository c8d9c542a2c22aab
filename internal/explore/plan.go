package explore

import (
	"context"
	"iter"
	"slices"

	"repro/internal/apps"
	"repro/internal/ddt"
)

// capturePlan returns the positions in jobs of the step's capture plan:
// a greedy cover of the lanes the jobs need and the cache does not hold
// — each job's schedule (holding the ambient lane) and its (role, kind)
// lanes. Each pick is the job that needs the most lanes no earlier pick
// needs, ties to the lower position, until no job brings a new lane;
// the positions come in pick order. Run first (see runPlan), the plan's
// live runs capture every missing lane, so every other job composes.
// Only a composing engine has a plan.
func (e *Engine) capturePlan(jobs []Job) []int {
	if !e.composing() {
		return nil
	}
	ids := make(map[string]int)
	need := make([][]int, len(jobs))
	for i, jb := range jobs {
		keys := e.jobLanes(jb)
		for l, missing := range e.cache.missingLanes(keys[0], keys[1:]) {
			if key := keys[l]; missing {
				if _, ok := ids[key]; !ok {
					ids[key] = len(ids)
				}
				need[i] = append(need[i], ids[key])
			}
		}
	}
	covered := make([]bool, len(ids))
	var plan []int
	for {
		best, gain := -1, 0
		for i, lanes := range need {
			g := 0
			for _, id := range lanes {
				if !covered[id] {
					g++
				}
			}
			if g > gain {
				best, gain = i, g
			}
		}
		if best < 0 {
			return plan
		}
		plan = append(plan, best)
		for _, id := range need[best] {
			covered[id] = true
		}
	}
}

// spacePlan is capturePlan over the whole step-1 space on ref, as
// combination indexes, in closed form: it never lists the 10^K jobs. A
// combination's gain is separable — the lanes every combination needs
// (schedule, ambient, the roles outside the dominant slate) count the
// same in each, and dominant role d adds one while its kind's lane is
// uncovered. So with M_d the sorted missing kinds of role d, the j-th
// pick gives role d kind M_d[j], or kind 0 once M_d is used up (the
// lowest combination among equal gains); the plan ends after the
// longest M_d, or after one pick when only shared lanes are missing.
// On a cold cache it is the ddt.NumKinds uniform-kind combinations.
func (e *Engine) spacePlan(ref Config, dominant []string) []int {
	if !e.composing() {
		return nil
	}
	ck := e.keysFor(ref)
	var keys []string
	for _, role := range apps.RoleNames(e.app) {
		if !slices.Contains(dominant, role) {
			keys = append(keys, ck.lane(role, apps.KindFor(nil, role)))
		}
	}
	shared := len(keys)
	for _, role := range dominant {
		for k := range ddt.NumKinds {
			keys = append(keys, ck.lane(role, ddt.Kind(k)))
		}
	}
	missing := e.cache.missingLanes(ck.sched, keys)
	n := 0
	if slices.Contains(missing[:shared+1], true) {
		n = 1
	}
	kinds := make([][]int, len(dominant))
	for d := range kinds {
		for k := range ddt.NumKinds {
			if missing[1+shared+d*ddt.NumKinds+k] {
				kinds[d] = append(kinds[d], k)
			}
		}
		n = max(n, len(kinds[d]))
	}
	plan := make([]int, n)
	for j := range plan {
		for _, m := range kinds {
			plan[j] *= ddt.NumKinds
			if j < len(m) {
				plan[j] += m[j]
			}
		}
	}
	return plan
}

// jobLanes returns the keys of the lanes jb composes from: index 0 its
// configuration's schedule (which holds the ambient lane), i+1 the lane
// of the app's i-th role under jb's kind for it.
func (e *Engine) jobLanes(jb Job) []string {
	ck := e.keysFor(jb.Cfg)
	keys := []string{ck.sched}
	for _, role := range apps.RoleNames(e.app) {
		keys = append(keys, ck.lane(role, apps.KindFor(jb.Assign, role)))
	}
	return keys
}

// runPlan resolves a step's jobs on the driver (see run) in two phases:
// the capture phase draws the plan's positions, each job live
// (captureMode; a screening step's screenMode falls through to the same
// live run), then the compose phase draws the positions rest yields, in
// mode. rest gets the plan's positions, which it must not yield, and
// is called once the capture phase has landed, so it can read the lanes
// that phase captured. jobAt renders the job at a position; land gets
// every outcome with Index set to its job's position. A cancelled ctx
// fires a checkpoint under sc and is returned. Every step draws through
// runPlan; one with no plan runs the compose phase alone.
func (e *Engine) runPlan(ctx context.Context, plan []int, rest func(skip map[int]bool) iter.Seq[int], jobAt func(int) Job, guardFor func(Job) *frontGuard, mode jobMode, sc ckptScope, land func(Outcome)) error {
	phase := func(pos iter.Seq[int], mode jobMode) error {
		var drawn []int
		jobs := func(yield func(Job) bool) {
			for p := range pos {
				drawn = append(drawn, p)
				if !yield(jobAt(p)) {
					return
				}
			}
		}
		err := e.run(ctx, jobs, guardFor, mode, sc, func(o Outcome) {
			o.Index = drawn[o.Index]
			land(o)
		})
		if err == nil && ctx.Err() != nil {
			e.fireCheckpoint(sc, false) // cancelled mid-step: snapshot for resume
			err = ctx.Err()
		}
		return err
	}
	skip := make(map[int]bool, len(plan))
	for _, p := range plan {
		skip[p] = true
	}
	if len(plan) > 0 {
		if err := phase(slices.Values(plan), max(mode, captureMode)); err != nil {
			return err
		}
	}
	return phase(rest(skip), mode)
}

// positions is the rest of runPlan over positions 0..total-1: it
// yields every position the skip set does not mark, in order.
func positions(total int) func(skip map[int]bool) iter.Seq[int] {
	return func(skip map[int]bool) iter.Seq[int] {
		return func(yield func(int) bool) {
			for p := range total {
				if !skip[p] && !yield(p) {
					return
				}
			}
		}
	}
}

// comboJob returns the jobAt of the step-1 space on ref: the job of a
// combination index.
func comboJob(ref Config, dominant []string) func(int) Job {
	return func(c int) Job { return Job{Cfg: ref, Assign: assignFor(dominant, c)} }
}
