package explore

import (
	"context"
	"strings"
	"testing"

	"repro/internal/apps/netapps"
)

// TestEngineRunLandsEachIndexOnce pins the driver's contract in both
// modes: every drawn job lands exactly once on the calling goroutine
// (land's plain counters would trip the race detector otherwise), a
// guarded run never has more than Workers jobs drawn and unlanded and
// lands in draw order, and the lowest-index error wins.
func TestEngineRunLandsEachIndexOnce(t *testing.T) {
	a, err := netapps.ByName("Route")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Configs(a)[0]
	const n, workers = 12, 3
	for _, guarded := range []bool{false, true} {
		eng := NewEngine(a, Options{TracePackets: 50, Workers: workers})
		var guardFor func(Job) *frontGuard
		if guarded {
			g := newFrontGuard()
			guardFor = func(Job) *frontGuard { return g }
		}
		drawn, landed := 0, 0
		seen := make(map[int]bool)
		jobs := func(yield func(Job) bool) {
			for range n {
				if guarded && drawn-landed >= workers {
					t.Errorf("guarded draw with %d jobs in flight", drawn-landed)
				}
				drawn++
				if !yield(Job{Cfg: cfg}) {
					return
				}
			}
		}
		err := eng.run(context.Background(), jobs, guardFor, exactMode, ckptScope{step: 1}, func(o Outcome) {
			if seen[o.Index] {
				t.Errorf("guarded=%v: index %d landed twice", guarded, o.Index)
			}
			if guarded && o.Index != landed {
				t.Errorf("guarded run landed index %d as outcome %d", o.Index, landed)
			}
			seen[o.Index] = true
			landed++
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != n || drawn != n {
			t.Fatalf("guarded=%v: %d drawn, %d landed, want %d", guarded, drawn, len(seen), n)
		}

		// Jobs 4 and 5 fail; the draws stop, and the lower index wins.
		failing := func(yield func(Job) bool) {
			for i := range n {
				c := cfg
				if i == 4 || i == 5 {
					c.TraceName = []string{"missing-four", "missing-five"}[i-4]
				}
				if !yield(Job{Cfg: c}) {
					return
				}
			}
		}
		err = eng.run(context.Background(), failing, guardFor, exactMode, ckptScope{step: 1}, func(Outcome) {})
		if err == nil || !strings.Contains(err.Error(), "missing-four") {
			t.Fatalf("guarded=%v: error %v, want the index-4 failure", guarded, err)
		}
	}
}
