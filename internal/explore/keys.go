package explore

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/apps"
	"repro/internal/ddt"
)

// engineKeys memoizes the renderings behind an engine's hot cache keys.
// Every job renders its cache key, and every bound check a schedule key
// and one lane key per role; formatting the platform with %+v and the
// configuration's knobs each time cost several percent of a pruned
// campaign. The memo is allocated and filled lazily on first use, so
// building an engine stays free. Keys are persisted: jobKey must equal
// cacheKey byte for byte, and the schedule and lane keys keep their
// format.
type engineKeys struct {
	platOnce sync.Once
	plat     string // "%+v" of the engine's platform: cacheKey's suffix

	mu   sync.RWMutex
	cfgs map[string][]*cfgKeys // by trace name
}

// cfgKeys holds one configuration's rendered key prefix and the keys
// derived from it: the schedule key "app|cfg|packets|sched" of the
// configuration's DDT-invariant schedule entry, and the lane keys
// "app|cfg|packets|lane|role=KIND" of its (role, kind) lanes
// (lane capture always runs arena-mode, so they carry no address-model
// marker).
type cfgKeys struct {
	knobs  apps.Knobs
	prefix string // "app|cfg|packets|", the head of every key
	sched  string

	mu    sync.RWMutex
	lanes map[laneID]string
}

type laneID struct {
	role string
	kind ddt.Kind
}

// forConfig returns cfg's memo entry, creating it on first use.
func (k *engineKeys) forConfig(app string, cfg Config, packets int) *cfgKeys {
	k.mu.RLock()
	ck := k.find(cfg)
	k.mu.RUnlock()
	if ck != nil {
		return ck
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if ck = k.find(cfg); ck != nil {
		return ck
	}
	prefix := fmt.Sprintf("%s|%s|%d|", app, cfg, packets)
	ck = &cfgKeys{knobs: cfg.Knobs.Clone(), prefix: prefix, sched: prefix + "sched"}
	if k.cfgs == nil {
		k.cfgs = make(map[string][]*cfgKeys)
	}
	k.cfgs[cfg.TraceName] = append(k.cfgs[cfg.TraceName], ck)
	return ck
}

// find scans the configurations seen on cfg's trace. Called with mu
// held.
func (k *engineKeys) find(cfg Config) *cfgKeys {
	for _, ck := range k.cfgs[cfg.TraceName] {
		if maps.Equal(ck.knobs, cfg.Knobs) {
			return ck
		}
	}
	return nil
}

// lane returns the lane key of (role, kind) under the configuration.
func (ck *cfgKeys) lane(role string, kind ddt.Kind) string {
	id := laneID{role, kind}
	ck.mu.RLock()
	key, ok := ck.lanes[id]
	ck.mu.RUnlock()
	if ok {
		return key
	}
	key = ck.prefix + "lane|" + role + "=" + kind.String()
	ck.mu.Lock()
	if ck.lanes == nil {
		ck.lanes = make(map[laneID]string)
	}
	ck.lanes[id] = key
	ck.mu.Unlock()
	return key
}

// keysFor returns the key memo of one configuration under the
// engine's application and packet count.
func (e *Engine) keysFor(cfg Config) *cfgKeys {
	return e.keyMemo().forConfig(e.app.Name(), cfg, e.opts.packets())
}

// keyMemo returns the engine's key memo, allocating it on first use.
func (e *Engine) keyMemo() *engineKeys {
	if k := e.keys.Load(); k != nil {
		return k
	}
	e.keys.CompareAndSwap(nil, &engineKeys{})
	return e.keys.Load()
}

// jobKey is cacheKey for one of the engine's jobs on its own platform.
func (e *Engine) jobKey(cfg Config, assign apps.Assignment) string {
	km := e.keyMemo()
	km.platOnce.Do(func() { km.plat = fmt.Sprintf("%+v", e.opts.platformConfig()) })
	k := km.forConfig(e.app.Name(), cfg, e.opts.packets()).prefix + assign.String()
	if e.opts.Arenas {
		k += "|arenas"
	}
	return k + "|" + km.plat
}
