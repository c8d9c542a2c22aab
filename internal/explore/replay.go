package explore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/astream"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/platform"
)

// ReplayPlatforms evaluates every complete captured access stream in the
// cache against the given platform configurations, storing the exact
// per-platform results back into the cache — the warm pass of a platform
// sweep. Per stream, the platforms the stream has no finished result for
// are evaluated by evalFamilies: a line-size family (platform.LineFamilies)
// whose cached reuse profile covers its missing members is pure
// arithmetic, and the remaining families share one profiled replay of
// the stream, whose profiles stay in the cache so the next sweep over
// this identity is arithmetic.
//
// The per-stream units are independent, so they fan out across a
// bounded worker pool (GOMAXPROCS workers), each reusing the pooled
// replay scratch. Streams that fail to decode are skipped (they fall
// back to live execution on demand). It returns the
// number of (stream, platform) evaluations performed.
func ReplayPlatforms(c *Cache, platforms []memsim.Config) int {
	if c == nil || len(platforms) == 0 {
		return 0
	}
	models := make([]energy.Model, len(platforms))
	for i, pc := range platforms {
		models[i] = energy.CACTILike(pc)
	}
	families := platform.LineFamilies(platforms)

	units := c.streams.snapshot(c)
	if len(units) == 0 {
		return 0
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	var (
		n    atomic.Int64
		wg   sync.WaitGroup
		feed = make(chan streamEntry)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range feed {
				keys := make([]string, len(platforms))
				for i, pc := range platforms {
					keys[i] = cacheKey(e.App, e.Cfg, e.Assign, e.Packets, pc, e.Arenas)
				}
				// A stream that fails to decode commits nothing and is
				// skipped; its points fall back to live execution.
				_, _ = evalFamilies(c, streamKey(e.App, e.Cfg, e.Assign, e.Packets, e.Arenas), platforms, families,
					func(i int) bool { return !c.has(keys[i]) },
					func() (astream.Source, error) { return e.Stream, nil },
					func(i int, cost astream.Cost, _ bool) {
						c.store(keys[i], Result{
							App:     e.App,
							Config:  e.Cfg,
							Assign:  e.Assign,
							Vec:     replayVector(platforms[i], models[i], cost),
							Summary: e.Summary,
						}, "")
						n.Add(1)
					})
			}
		}()
	}
	for _, e := range units {
		feed <- e
	}
	close(feed)
	wg.Wait()
	return int(n.Load())
}

// evalFamilies evaluates one simulation point under platforms, one
// line-size family at a time. want(i) reports whether platform i still
// needs a result (nil wants every platform). A family whose cached
// reuse profile (under the point's stream key skey) covers every wanted
// member is answered by astream.CostFromProfile — zero decode, zero
// probes. The other families enter one profiled astream.Replay of the
// source open returns — whole, so the profiles they leave in the cache
// cover each family's full cross product — and one walk of the source
// drives every such family's all-geometry kernel. put receives each
// wanted platform's exact cost; probed tells a probe-pass cost from a
// profile-served one.
//
// Nothing is committed — no put, no stored profile — until the
// coverage check is done and the probe pass, if any, has succeeded. A
// nil source from open (none available) returns false, and a failed
// pass returns its error; neither leaves a trace, so a caller may fall
// back to another source without double-counting.
func evalFamilies(c *Cache, skey string, platforms []memsim.Config, families []platform.LineFamily, want func(int) bool,
	open func() (astream.Source, error), put func(i int, cost astream.Cost, probed bool)) (bool, error) {
	wanted := func(i int) bool { return want == nil || want(i) }
	// Profiles are immutable, so holding the pointers keeps the commit
	// below immune to concurrent eviction.
	covered := make([]*memsim.ReuseProfile, len(families))
	var rest []int // platform indexes the cached profiles cannot answer
	for fi, fam := range families {
		var p *memsim.ReuseProfile
		looked, covers := false, true
		for _, i := range fam.Indexes {
			if !wanted(i) {
				continue
			}
			if !looked {
				p, _ = c.rprofiles.get(c, reuseProfileKey(skey, fam.LineBytes))
				looked = true
			}
			covers = covers && p != nil && p.Covers(platforms[i])
		}
		switch {
		case !looked: // nothing wanted
		case covers:
			covered[fi] = p
		default:
			rest = append(rest, fam.Indexes...)
		}
	}

	var costs []astream.Cost
	if len(rest) > 0 {
		src, err := open()
		if src == nil || err != nil {
			return false, err
		}
		cfgs := make([]memsim.Config, len(rest))
		for j, i := range rest {
			cfgs[j] = platforms[i]
		}
		var profs []*memsim.ReuseProfile
		if costs, profs, err = astream.Replay(src, cfgs, astream.ReplayOpts{Profile: true}); err != nil {
			return false, err
		}
		for _, p := range profs {
			c.rprofiles.put(c, reuseProfileKey(skey, p.LineBytes), p)
		}
	}
	for fi, fam := range families {
		if p := covered[fi]; p != nil {
			for _, i := range fam.Indexes {
				if cost, ok := astream.CostFromProfile(p, platforms[i]); ok && wanted(i) {
					put(i, cost, false)
				}
			}
		}
	}
	for j, i := range rest {
		if wanted(i) {
			put(i, costs[j], true)
		}
	}
	return true, nil
}
