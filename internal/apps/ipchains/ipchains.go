// Package ipchains reimplements the NetBench "IPchains" benchmark: a
// Linux-2.2-style packet-filter firewall with an ordered rule chain and a
// connection-tracking cache.
//
// Candidate containers: the rule chain (linear first-match scan on every
// packet that misses the connection cache — its length is the paper's
// "number of rules activated in a firewall application" network
// parameter), the conntrack table (probed on every packet, inserted on
// accepted SYNs, deleted on FINs) and the deny log.
package ipchains

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/ddt"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// Container role names.
const (
	RoleRules     = "rules"
	RoleConntrack = "conntrack"
	RoleLog       = "deny-log"
)

// KnobRules is the active rule-chain length — the application-specific
// network parameter the paper sweeps for firewalls.
const KnobRules = "rules"

// Verdicts.
const (
	verdictDeny uint8 = iota
	verdictAccept
)

// ruleRec is one filter rule: match on source network, protocol and
// destination port range.
type ruleRec struct {
	SrcNet, SrcMask uint32
	PortLo, PortHi  uint16
	Proto           trace.Proto
	MatchAnyProto   bool
	Verdict         uint8
}

// connRec is one tracked connection.
type connRec struct {
	Key trace.FlowKey
}

// logRec is one deny-log record.
type logRec struct {
	Src, Dst uint32
	TS       float32
}

// App is the IPchains benchmark.
type App struct{}

var _ apps.App = App{}

// Name returns "IPchains".
func (App) Name() string { return "IPchains" }

// Roles lists the candidate containers.
func (App) Roles() []apps.Role {
	return []apps.Role{
		{Name: RoleRules, RecordBytes: 32},
		{Name: RoleConntrack, RecordBytes: 24},
		{Name: RoleLog, RecordBytes: 16},
	}
}

// DefaultKnobs uses a mid-size chain.
func (App) DefaultKnobs() apps.Knobs { return apps.Knobs{KnobRules: 64} }

// KnobSweep explores three chain lengths; with the seven networks this
// yields the paper's 21 IPchains configurations (2100 exhaustive
// simulations / 100 combinations).
func (App) KnobSweep() map[string][]int {
	return map[string][]int{KnobRules: {32, 64, 128}}
}

// TraceNames: seven networks, like Route.
func (App) TraceNames() []string {
	return []string{"FLA", "SDC", "BWY-I", "Berry", "Brown", "Collis", "Sudikoff"}
}

// maxConntrack bounds the connection cache; the oldest entry is evicted
// beyond it.
const maxConntrack = 384

// maxLog bounds the deny log ring.
const maxLog = 128

// Run executes the firewall over the trace.
func (a App) Run(tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs, probes *profiler.Set) (apps.Summary, error) {
	sum := apps.NewSummary()
	if err := apps.ValidateAssignment(a, assign); err != nil {
		return sum, err
	}
	nRules := knobs[KnobRules]
	if nRules < 2 {
		return sum, fmt.Errorf("ipchains: knob %q must be at least 2, got %d", KnobRules, nRules)
	}
	ruleEnv := apps.EnvFor(p, probes, RoleRules)
	connEnv := apps.EnvFor(p, probes, RoleConntrack)
	logEnv := apps.EnvFor(p, probes, RoleLog)
	rules := ddt.New[ruleRec](apps.KindFor(assign, RoleRules), ruleEnv, 32)
	conns := ddt.New[connRec](apps.KindFor(assign, RoleConntrack), connEnv, 24)
	denyLog := ddt.New[logRec](apps.KindFor(assign, RoleLog), logEnv, 16)

	buildChain(rules, nRules)

	for i := range tr.Packets {
		pk := &tr.Packets[i]
		sum.Packets++
		p.Mem.Op(80) // header extraction and sanity checks, DDT-independent
		key := pk.Key()

		// Established connections bypass the chain.
		idx, _, tracked := ddt.Find(conns, connEnv, 4, func(c connRec) bool {
			return c.Key == key
		})
		if tracked {
			if pk.Flags&trace.FIN != 0 {
				conns.RemoveAt(idx)
			}
			p.Mem.Op(2)
			sum.Count("tracked", 1)
			continue
		}

		verdict := matchChain(rules, ruleEnv, pk)
		if verdict == verdictAccept {
			sum.Count("accept", 1)
			if pk.Proto == trace.TCP && pk.Flags&trace.SYN != 0 {
				conns.Append(connRec{Key: key})
				if conns.Len() > maxConntrack {
					conns.RemoveAt(0)
				}
			}
		} else {
			sum.Count("deny", 1)
			denyLog.Append(logRec{Src: pk.Src, Dst: pk.Dst, TS: float32(pk.TS)})
			if denyLog.Len() > maxLog {
				denyLog.RemoveAt(0)
			}
		}
	}
	return sum, nil
}

// matchChain scans the chain in order and returns the verdict of the
// first matching rule (the chain always terminates with a default rule).
func matchChain(rules ddt.List[ruleRec], env *ddt.Env, pk *trace.Packet) uint8 {
	verdict := verdictDeny
	ddt.Scan(rules, func(_ int, r ruleRec) bool {
		env.Op(5) // field compares
		if !r.MatchAnyProto && r.Proto != pk.Proto {
			return true
		}
		if pk.Src&r.SrcMask != r.SrcNet {
			return true
		}
		if pk.DstPort < r.PortLo || pk.DstPort > r.PortHi {
			return true
		}
		verdict = r.Verdict
		return false
	})
	return verdict
}

// buildChain constructs a deterministic chain of n rules whose match
// depths are spread across the chain: early administrative denies, an
// accept for HTTP about a third in, DNS past the middle, ephemeral port
// slices throughout, and a trailing default deny. Different chain lengths
// therefore shift both the average scan depth and the accept ratio, which
// is what makes the rule count a real exploration parameter.
func buildChain(rules ddt.List[ruleRec], n int) {
	slice := 0
	for i := 0; i < n-1; i++ {
		var r ruleRec
		switch {
		case i == 0:
			// Administrative denies for specific subnets (rarely hit).
			r = ruleRec{SrcNet: 0xc0a80000, SrcMask: 0xffff0000, PortHi: 0xffff, MatchAnyProto: true, Verdict: verdictDeny}
		case i == 1:
			r = ruleRec{SrcNet: 0x0a630000, SrcMask: 0xffff0000, PortHi: 0xffff, MatchAnyProto: true, Verdict: verdictDeny}
		case i == n/3:
			r = ruleRec{PortLo: 80, PortHi: 80, Proto: trace.TCP, Verdict: verdictAccept}
		case i == n/3+1:
			r = ruleRec{PortLo: 25, PortHi: 25, Proto: trace.TCP, Verdict: verdictAccept}
		case i == n/3+2:
			r = ruleRec{PortLo: 21, PortHi: 21, Proto: trace.TCP, Verdict: verdictAccept}
		case i == 2*n/3:
			r = ruleRec{PortLo: 53, PortHi: 53, Proto: trace.UDP, Verdict: verdictAccept}
		default:
			// Ephemeral port slices: each covers a band of high ports.
			lo := uint16(1024 + slice*1024)
			r = ruleRec{PortLo: lo, PortHi: lo + 1023, Proto: trace.TCP, Verdict: verdictAccept}
			slice = (slice + 1) % 39
		}
		rules.Append(r)
	}
	// Default deny terminates the chain.
	rules.Append(ruleRec{PortHi: 0xffff, MatchAnyProto: true, Verdict: verdictDeny})
}
