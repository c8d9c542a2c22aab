// Package apps defines the contract between the network applications under
// study and the exploration methodology.
//
// An App declares its candidate dynamic containers as named Roles (the
// paper instruments "each candidate DDT of the network application"), runs
// over one packet trace on one simulated Platform under one DDT
// Assignment, and exposes the application-specific network parameters
// (Knobs) the network-level exploration sweeps — the paper's examples
// being the radix tree size of Route, the number of active rules of a
// firewall and the level of fairness of DRR (§3.2).
package apps

import (
	"fmt"
	"sort"

	"repro/internal/ddt"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// Role describes one candidate dynamic data structure of an application.
type Role struct {
	Name        string
	RecordBytes uint32 // simulated payload size of one record
}

// Assignment maps role names to the DDT implementing them. Roles absent
// from the assignment keep the original implementation.
type Assignment map[string]ddt.Kind

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// String renders the assignment as "role=KIND role=KIND", role-sorted —
// the combination label used in logs and Pareto charts.
func (a Assignment) String() string {
	roles := make([]string, 0, len(a))
	for r := range a {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	s := ""
	for i, r := range roles {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%s", r, a[r])
	}
	return s
}

// Knobs are application-specific network-configuration parameters.
type Knobs map[string]int

// Clone returns a copy of the knobs.
func (k Knobs) Clone() Knobs {
	out := make(Knobs, len(k))
	for n, v := range k {
		out[n] = v
	}
	return out
}

// String renders knobs as "name=value", name-sorted; empty knobs render
// as "-".
func (k Knobs) String() string {
	if len(k) == 0 {
		return "-"
	}
	names := make([]string, 0, len(k))
	for n := range k {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", n, k[n])
	}
	return s
}

// OriginalKind is the DDT of the unmodified NetBench implementations: the
// paper states the original dominant structures were single linked lists.
const OriginalKind = ddt.SLL

// Summary reports what an application did during a run, independent of the
// cost metrics: packet count plus named behavioural counters (routes
// installed, rules matched, packets served, ...). The DDT assignment must
// never change a Summary — tests rely on that to prove the refinement
// preserves functionality, the paper's "this procedure does not alter the
// actual functionality of the application".
type Summary struct {
	Packets int
	Events  map[string]int
}

// NewSummary returns an empty summary.
func NewSummary() Summary {
	return Summary{Events: make(map[string]int)}
}

// Count adds n to the named event counter.
func (s *Summary) Count(event string, n int) {
	s.Events[event] += n
}

// Equal reports whether two summaries match exactly.
func (s Summary) Equal(o Summary) bool {
	if s.Packets != o.Packets || len(s.Events) != len(o.Events) {
		return false
	}
	for k, v := range s.Events {
		if o.Events[k] != v {
			return false
		}
	}
	return true
}

// App is a network application under DDT refinement.
type App interface {
	// Name is the benchmark name as the paper uses it (Route, URL,
	// IPchains, DRR).
	Name() string
	// Roles lists every candidate container, most application-central
	// first (order does not affect exploration; dominance is measured).
	Roles() []Role
	// DefaultKnobs returns the reference network-configuration parameters.
	DefaultKnobs() Knobs
	// KnobSweep returns, per knob, the values the network-level
	// exploration examines. Knobs not listed keep their default.
	KnobSweep() map[string][]int
	// TraceNames lists the built-in traces this application is evaluated
	// on (the paper uses 7 networks for Route and IPchains, 5 for URL and
	// DRR).
	TraceNames() []string
	// Run executes the application over tr on p with the given DDT
	// assignment and knobs, returning a behavioural summary. probes may
	// be nil; when set, container accesses are attributed per role for
	// dominance profiling.
	Run(tr *trace.Trace, p *platform.Platform, assign Assignment, knobs Knobs, probes *profiler.Set) (Summary, error)
}

// EnvFor builds the ddt.Env for one container role on p, attaching the
// role's probe when profiling. On an arena-mode platform (UseArenas) the
// environment is additionally bound to the role's private address arena
// and boundary lane, which is what isolates the role's access sub-stream
// for compositional capture.
func EnvFor(p *platform.Platform, probes *profiler.Set, role string) *ddt.Env {
	env := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
	if a, lane, ok := p.ArenaFor(role); ok {
		env.Arena, env.Lane = a, lane
	}
	if probes != nil {
		env.Probe = probes.Probe(role)
	}
	return env
}

// RoleNames returns the application's role names in Roles() order — the
// lane order of arena-mode platforms.
func RoleNames(a App) []string {
	roles := a.Roles()
	names := make([]string, len(roles))
	for i, r := range roles {
		names[i] = r.Name
	}
	return names
}

// KindFor resolves the DDT kind for a role under an assignment, falling
// back to the original implementation.
func KindFor(assign Assignment, role string) ddt.Kind {
	if k, ok := assign[role]; ok {
		return k
	}
	return OriginalKind
}

// Original returns the assignment of the unmodified benchmark: every
// candidate role bound to the original single linked list.
func Original(a App) Assignment {
	out := make(Assignment)
	for _, r := range a.Roles() {
		out[r.Name] = OriginalKind
	}
	return out
}

// ValidateAssignment checks that every assigned role exists in the app.
func ValidateAssignment(a App, assign Assignment) error {
	valid := make(map[string]bool)
	for _, r := range a.Roles() {
		valid[r.Name] = true
	}
	for role := range assign {
		if !valid[role] {
			return fmt.Errorf("apps: %s has no container role %q", a.Name(), role)
		}
	}
	return nil
}
