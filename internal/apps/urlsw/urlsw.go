// Package urlsw reimplements the NetBench "URL" benchmark: URL-based
// context switching, the content-aware front end that inspects the request
// path of incoming HTTP flows and switches each flow to a back-end server
// pool.
//
// Candidate containers: the URL pattern table scanned per request, the
// active session table probed on every packet (insert on SYN, delete on
// FIN — the churn that makes this application dynamic), and a small server
// pool. The paper notes both dominant DDTs of the original implementation
// were single linked lists, and reports 20% execution-time and 80% energy
// reduction for the refined ones (§4).
package urlsw

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/ddt"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// Container role names.
const (
	RolePatterns = "patterns"
	RoleSessions = "sessions"
	RoleServers  = "servers"
)

// KnobSessions caps the session table (oldest sessions are evicted
// beyond it, as the NetBench implementation bounds its tables).
const KnobSessions = "maxsessions"

// patRec is one switching rule: requests whose path starts with Prefix go
// to server pool Server.
type patRec struct {
	Prefix string
	Server int32
}

// sessRec is one active switched flow.
type sessRec struct {
	Src    uint32
	Port   uint16
	Server int32
	Bytes  uint32
}

// srvRec is one back-end pool member.
type srvRec struct {
	Addr  uint32
	Conns uint32
}

// patternTable is the switching policy: longest prefixes first so the
// first match is the most specific, default pool last.
var patternTable = []patRec{
	{"/images/banner", 1},
	{"/images", 1},
	{"/static/style", 1},
	{"/static", 1},
	{"/cgi-bin/search", 2},
	{"/cgi-bin/login", 3},
	{"/cgi-bin", 2},
	{"/video", 4},
	{"/audio", 4},
	{"/download", 4},
	{"/mail/compose", 5},
	{"/mail", 5},
	{"/catalog/item", 6},
	{"/catalog", 6},
	{"/news", 7},
	{"/weather", 7},
	{"/sports", 7},
	{"/docs", 7},
	{"/feed", 7},
	{"/ads", 2},
	{"/index", 0},
	{"/", 0},
}

// App is the URL benchmark.
type App struct{}

var _ apps.App = App{}

// Name returns "URL".
func (App) Name() string { return "URL" }

// Roles lists the candidate containers.
func (App) Roles() []apps.Role {
	return []apps.Role{
		{Name: RolePatterns, RecordBytes: 24},
		{Name: RoleSessions, RecordBytes: 24},
		{Name: RoleServers, RecordBytes: 16},
	}
}

// DefaultKnobs bounds the session table. A content switch in front of a
// server farm tracks hundreds of concurrent flows; at this size the table
// outgrows the embedded L1 and its DDT choice carries real weight.
func (App) DefaultKnobs() apps.Knobs { return apps.Knobs{KnobSessions: 384} }

// KnobSweep is empty: the paper explores URL across networks only
// (500 simulations = 100 combinations x 5 networks).
func (App) KnobSweep() map[string][]int { return nil }

// TraceNames: the paper evaluates URL on 5 different networks; HTTP-heavy
// wireless buildings fit the workload.
func (App) TraceNames() []string {
	return []string{"Berry", "Brown", "Collis", "Sudikoff", "Whittemore-I"}
}

// Run executes URL switching over the trace.
func (a App) Run(tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs, probes *profiler.Set) (apps.Summary, error) {
	sum := apps.NewSummary()
	if err := apps.ValidateAssignment(a, assign); err != nil {
		return sum, err
	}
	maxSessions := knobs[KnobSessions]
	if maxSessions <= 0 {
		return sum, fmt.Errorf("urlsw: knob %q must be positive, got %d", KnobSessions, maxSessions)
	}
	patEnv := apps.EnvFor(p, probes, RolePatterns)
	sessEnv := apps.EnvFor(p, probes, RoleSessions)
	srvEnv := apps.EnvFor(p, probes, RoleServers)
	patterns := ddt.New[patRec](apps.KindFor(assign, RolePatterns), patEnv, 24)
	sessions := ddt.New[sessRec](apps.KindFor(assign, RoleSessions), sessEnv, 24)
	servers := ddt.New[srvRec](apps.KindFor(assign, RoleServers), srvEnv, 16)

	for _, pr := range patternTable {
		patterns.Append(pr)
	}
	for i := 0; i < 8; i++ {
		servers.Append(srvRec{Addr: 0x0aff0001 + uint32(i)})
	}

	for i := range tr.Packets {
		pk := &tr.Packets[i]
		sum.Packets++
		p.Mem.Op(60) // TCP reassembly / header parse, DDT-independent
		if pk.DstPort != 80 && pk.SrcPort != 80 {
			p.Mem.Op(2) // non-HTTP fast path
			sum.Count("non-http", 1)
			continue
		}
		// Session lookup on every HTTP packet.
		idx, sess, ok := ddt.Find(sessions, sessEnv, 3, func(s sessRec) bool {
			return s.Src == pk.Src && s.Port == pk.SrcPort
		})
		switch {
		case ok && pk.Flags&trace.FIN != 0:
			sessions.RemoveAt(idx)
			sum.Count("fin-closed", 1)
		case ok:
			sess.Bytes += uint32(pk.Size)
			sessions.Set(idx, sess)
			sum.Count("session-hit", 1)
		case pk.Flags&trace.SYN != 0:
			// New request: parse the request line, classify by URL
			// pattern scan, then switch.
			p.Mem.Op(150)
			target := classify(patterns, patEnv, pk.Payload)
			srv := servers.Get(int(target))
			srv.Conns++
			servers.Set(int(target), srv)
			sessions.Append(sessRec{Src: pk.Src, Port: pk.SrcPort, Server: target, Bytes: uint32(pk.Size)})
			sum.Count("request", 1)
			sum.Count(fmt.Sprintf("pool-%d", target), 1)
			if sessions.Len() > maxSessions {
				sessions.RemoveAt(0) // evict the oldest session
				sum.Count("evicted", 1)
			}
		default:
			p.Mem.Op(1) // mid-flow packet for an evicted session
			sum.Count("orphan", 1)
		}
	}
	return sum, nil
}

// classify scans the pattern table in order and returns the server pool of
// the first prefix match, charging the string comparison per visited
// pattern.
func classify(patterns ddt.List[patRec], env *ddt.Env, path string) int32 {
	var target int32
	ddt.Scan(patterns, func(_ int, pr patRec) bool {
		// Prefix compare cost: one cycle per 4 compared bytes.
		n := len(pr.Prefix)
		if len(path) < n {
			n = len(path)
		}
		env.Op(uint64(n/4) + 1)
		if strings.HasPrefix(path, pr.Prefix) {
			target = pr.Server
			return false
		}
		return true
	})
	return target
}
