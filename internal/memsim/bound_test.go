package memsim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// boundProfile builds a small real profile from an all-geometry pass
// plus hand-set invariant aggregates.
func boundProfile(t *testing.T) *ReuseProfile {
	t.Helper()
	gs, err := NewGeomSim([]Config{DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// 4 accesses, 3 distinct lines (0x1000 reused), one spanning 64B.
	gs.ProbeAccesses([]uint32{0x1000, 0x1004, 0x9000, 0x1000}, []uint32{4, 4, 64, 4})
	p := gs.Profile()
	p.ReadWords, p.WriteWords, p.OpCycles, p.Peak = 16, 5, 40, 512
	return p
}

// TestLaneBoundArithmetic pins the closed-form bound: accumulation
// sums counters and maxes peaks, and Cost picks the admissible
// cost-minimizing split (maximal L1 hits, cold fills at DRAM, the rest
// L2). The ingredients come from an isolated LineSim pass, as
// astream.LaneBound derives them.
func TestLaneBoundArithmetic(t *testing.T) {
	cfg := DefaultConfig()
	// 4 accesses, 3 distinct lines (0x1000 reused), one spanning 64B.
	ls := NewLineSim(cfg)
	ls.ProbeAccesses([]uint32{0x1000, 0x1004, 0x9000, 0x1000}, []uint32{4, 4, 64, 4})
	b := LaneBound{
		Probes: ls.Probes(), MaxL1Hits: ls.L1Hits, ColdFills: 3, Pipelined: ls.Pipelined(),
		ReadWords: 16, WriteWords: 5, OpCycles: 40, Peak: 512, EndLive: 300,
	}

	other := b
	other.Peak, other.EndLive = 100, 700
	sum := b
	sum.Accumulate(other)
	if sum.Probes != 2*b.Probes || sum.ColdFills != 6 || sum.OpCycles != 80 {
		t.Fatalf("accumulate did not sum: %+v", sum)
	}
	if sum.Peak != 512 {
		t.Fatalf("accumulate must max peaks, got %d", sum.Peak)
	}
	if sum.EndLive != 1000 {
		t.Fatalf("accumulate must sum end-live, got %d", sum.EndLive)
	}

	// Cost: with Probes=5 (4 single-line + the 64B span's 2nd line),
	// MaxL1Hits=2 (the same-line 0x1004 touch and the 0x1000 reuse) and
	// ColdFills=3, the split is H1=2, D=3, H2=0.
	c, cycles, peak := b.Cost(cfg)
	if c.L1Hits+c.L2Hits+c.DRAMFills != b.Probes {
		t.Fatalf("split does not cover probes: %+v", c)
	}
	if c.L1Hits != b.MaxL1Hits || c.DRAMFills != 3 {
		t.Fatalf("split not cost-minimizing: %+v", c)
	}
	if want := cfg.CyclesFor(c, b.Pipelined); cycles != want {
		t.Fatalf("cycles %d, want %d", cycles, want)
	}
	if peak != 512 {
		t.Fatalf("peak floor %d, want own-peak 512", peak)
	}
	if c.ReadWords != 16 || c.WriteWords != 5 || c.OpCycles != 40 {
		t.Fatalf("invariant counters lost: %+v", c)
	}

	// EndLive above the own peak floors the footprint instead.
	tall := b
	tall.EndLive = 9999
	if _, _, pk := tall.Cost(cfg); pk != 9999 {
		t.Fatalf("end-live floor ignored: %d", pk)
	}

	// Clamp: when cold fills squeeze the hit budget, L1 hits shrink
	// before the split goes negative.
	squeezed := b
	squeezed.ColdFills = b.Probes
	c2, _, _ := squeezed.Cost(cfg)
	if c2.L1Hits != 0 || c2.L2Hits != 0 || c2.DRAMFills != b.Probes {
		t.Fatalf("clamped split wrong: %+v", c2)
	}
}

// randomLaneBound draws ingredient fields with the structural invariants
// a real profile guarantees (cold lines and L1 hits within the probe
// count, end-live within the own peak), on a small grid so clamp
// boundaries inside Cost are hit often.
func randomLaneBound(rng *rand.Rand) LaneBound {
	probes := uint64(rng.Intn(40))
	peak := uint64(rng.Intn(2000))
	return LaneBound{
		Probes:     probes,
		MaxL1Hits:  uint64(rng.Intn(int(probes) + 1)),
		ColdFills:  uint64(rng.Intn(int(probes) + 1)),
		Pipelined:  uint64(rng.Intn(20)),
		ReadWords:  uint64(rng.Intn(100)),
		WriteWords: uint64(rng.Intn(100)),
		OpCycles:   uint64(rng.Intn(500)),
		Peak:       peak,
		EndLive:    uint64(rng.Intn(int(peak) + 1)),
	}
}

// TestCostFloorAdmissible is the property branch-and-bound prefix bounds
// rest on: a prefix accumulation extended with the CostFloor of a free
// role's alternatives never exceeds — on any objective ingredient — the
// same prefix extended with any individual alternative. Checked across
// random prefixes, alternative sets and (monotone-latency) platforms,
// on every ingredient an eligible objective is monotone in: cycles,
// word accesses, below-L1 references, DRAM fills and the footprint
// floor.
func TestCostFloorAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfgs := []Config{DefaultConfig()}
	for _, lat := range [][3]uint64{{1, 1, 1}, {0, 5, 200}, {3, 3, 80}} {
		c := DefaultConfig()
		c.L1HitCycles, c.L2HitCycles, c.DRAMCycles = lat[0], lat[1], lat[2]
		cfgs = append(cfgs, c)
	}
	for _, cfg := range cfgs {
		if !BoundEligible(cfg) {
			t.Fatalf("test platform not bound-eligible: %+v", cfg)
		}
	}
	for trial := 0; trial < 400; trial++ {
		alts := make([]LaneBound, 1+rng.Intn(10))
		for i := range alts {
			alts[i] = randomLaneBound(rng)
		}
		prefix := LaneBound{}
		for d := rng.Intn(4); d > 0; d-- {
			prefix.Accumulate(randomLaneBound(rng))
		}
		floor := CostFloor(alts)
		withFloor := prefix
		withFloor.Accumulate(floor)
		for _, cfg := range cfgs {
			fc, fcy, fpk := withFloor.Cost(cfg)
			for i, a := range alts {
				withAlt := prefix
				withAlt.Accumulate(a)
				ac, acy, apk := withAlt.Cost(cfg)
				switch {
				case fcy > acy:
					t.Fatalf("trial %d alt %d: floor cycles %d > alt %d", trial, i, fcy, acy)
				case fpk > apk:
					t.Fatalf("trial %d alt %d: floor peak %d > alt %d", trial, i, fpk, apk)
				case fc.Accesses() > ac.Accesses():
					t.Fatalf("trial %d alt %d: floor accesses %d > alt %d", trial, i, fc.Accesses(), ac.Accesses())
				case fc.L2Hits+fc.DRAMFills > ac.L2Hits+ac.DRAMFills:
					t.Fatalf("trial %d alt %d: floor below-L1 refs %d > alt %d",
						trial, i, fc.L2Hits+fc.DRAMFills, ac.L2Hits+ac.DRAMFills)
				case fc.DRAMFills > ac.DRAMFills:
					t.Fatalf("trial %d alt %d: floor DRAM fills %d > alt %d", trial, i, fc.DRAMFills, ac.DRAMFills)
				case fc.OpCycles > ac.OpCycles:
					t.Fatalf("trial %d alt %d: floor op cycles %d > alt %d", trial, i, fc.OpCycles, ac.OpCycles)
				}
			}
		}
	}
}

// TestBoundEligible pins the gate: geometry-profileable platforms with
// monotone level latencies qualify; inverted latencies or unprofileable
// geometry do not.
func TestBoundEligible(t *testing.T) {
	if !BoundEligible(DefaultConfig()) {
		t.Fatal("default platform must be bound-eligible")
	}
	inv := DefaultConfig()
	inv.L2HitCycles = inv.DRAMCycles + 1
	if BoundEligible(inv) {
		t.Fatal("inverted latencies accepted")
	}
	odd := DefaultConfig()
	odd.L1.SizeBytes = 9 << 10 // 144 sets, not a power of two
	if BoundEligible(odd) {
		t.Fatal("non-geom-eligible geometry accepted")
	}
}

// TestReuseProfileVersionCompat pins that only the current encoding
// version decodes: the encoder round-trips a profile exactly, and the
// same bytes tagged with any earlier version are refused.
func TestReuseProfileVersionCompat(t *testing.T) {
	p := boundProfile(t)
	enc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version byte
		ok      bool
	}{{1, false}, {2, false}, {3, false}, {4, true}} {
		b := append([]byte(nil), enc...)
		b[1] = tc.version
		var got ReuseProfile
		err := got.UnmarshalBinary(b)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "unsupported reuse profile version") {
				t.Errorf("version %d: got error %v, want it refused as unsupported", tc.version, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("version %d: %v", tc.version, err)
		}
		if !reflect.DeepEqual(&got, p) {
			t.Fatalf("version %d round trip changed the profile:\n%+v\nwant\n%+v", tc.version, &got, p)
		}
	}
	if enc[1] != reuseProfileVersion || reuseProfileVersion != 4 {
		t.Fatalf("encoder writes version %d, want 4", enc[1])
	}
}

// TestMergeRespectsDecoderCaps pins that accumulating coverage can
// never produce a profile the decoder would reject: a merge whose union
// would exceed the L2 entry cap keeps the newer profile instead.
func TestMergeRespectsDecoderCaps(t *testing.T) {
	mk := func(start uint32, n int) *ReuseProfile {
		p := &ReuseProfile{
			LineBytes: 32, Probes: 4,
			L1: []L1Profile{{Sets: 128, Hist: []uint64{4}, Deep: 0}},
		}
		for i := 0; i < n; i++ {
			p.L2 = append(p.L2, L2Profile{L1Sets: 128, L1Assoc: 1, L2Sets: start << i, Hist: []uint64{0}, Deep: 0})
		}
		return p
	}
	a := mk(1, 16)
	b := mk(1<<16, 16)
	if m := a.Merge(b); len(m.L2) != 32 {
		t.Fatalf("disjoint in-cap merge lost entries: %d", len(m.L2))
	}
	// Force the cap low is not possible without exceeding 4096 real
	// entries; synthesize a profile already at the cap and merge a
	// disjoint one — the union would exceed maxProfileL2, so the newer
	// profile must come back unchanged.
	big := &ReuseProfile{LineBytes: 32, Probes: 4,
		L1: []L1Profile{{Sets: 128, Hist: []uint64{4}, Deep: 0}}}
	for i := 0; i < maxProfileL2; i++ {
		big.L2 = append(big.L2, L2Profile{L1Sets: 128, L1Assoc: 1, L2Sets: uint32(i + 1), Hist: []uint64{0}, Deep: 0})
	}
	fresh := mk(1<<20, 4)
	if m := fresh.Merge(big); len(m.L2) != len(fresh.L2) {
		t.Fatalf("over-cap merge did not fall back to the newer profile: %d entries", len(m.L2))
	}
}
