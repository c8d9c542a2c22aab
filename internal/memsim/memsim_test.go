package memsim_test

import (
	"testing"

	"repro/internal/memsim"
)

func TestWordCounting(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	h.Read(0x1000, 4)   // 1 word
	h.Read(0x2000, 10)  // 3 words (rounded up)
	h.Write(0x3000, 16) // 4 words
	c := h.Counts()
	if c.ReadWords != 4 {
		t.Errorf("ReadWords = %d, want 4", c.ReadWords)
	}
	if c.WriteWords != 4 {
		t.Errorf("WriteWords = %d, want 4", c.WriteWords)
	}
	if c.Accesses() != 8 {
		t.Errorf("Accesses = %d, want 8", c.Accesses())
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	h.Read(0x1000, 0)
	if h.Counts().Accesses() != 0 || h.Cycles() != 0 {
		t.Error("zero-size access charged work")
	}
}

func TestColdMissThenHit(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	h.Read(0x1000, 4)
	c := h.Counts()
	if c.DRAMFills != 1 || c.L1Hits != 0 || c.L2Hits != 0 {
		t.Fatalf("cold access: %+v, want one DRAM fill", c)
	}
	if h.Cycles() != cfg.DRAMCycles {
		t.Fatalf("cold access cycles = %d, want %d", h.Cycles(), cfg.DRAMCycles)
	}
	h.Read(0x1000, 4)
	c = h.Counts()
	if c.L1Hits != 1 {
		t.Fatalf("second access should hit L1: %+v", c)
	}
	if h.Cycles() != cfg.DRAMCycles+cfg.L1HitCycles {
		t.Fatalf("cycles = %d", h.Cycles())
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	// Touch a line, then stream enough same-set lines through L1 to evict
	// it while it stays resident in the larger L2.
	h.Read(0x1000, 4)
	l1Sets := cfg.L1.Sets()
	stride := l1Sets * cfg.L1.LineBytes // same L1 set every time
	for i := uint32(1); i <= cfg.L1.Assoc+1; i++ {
		h.Read(0x1000+i*stride, 4)
	}
	before := h.Counts()
	h.Read(0x1000, 4)
	after := h.Counts()
	if after.L2Hits != before.L2Hits+1 {
		t.Fatalf("expected an L2 hit after L1 eviction; counts %+v -> %+v", before, after)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	l1Sets := cfg.L1.Sets()
	stride := l1Sets * cfg.L1.LineBytes
	// Fill one set exactly to associativity, touching line 0 most recently.
	for i := uint32(0); i < cfg.L1.Assoc; i++ {
		h.Read(0x1000+i*stride, 4)
	}
	h.Read(0x1000, 4) // make line 0 MRU
	// One more distinct line evicts the LRU line, which must not be line 0.
	h.Read(0x1000+cfg.L1.Assoc*stride, 4)
	before := h.Counts().L1Hits
	h.Read(0x1000, 4)
	if h.Counts().L1Hits != before+1 {
		t.Fatal("MRU line was evicted; LRU policy broken")
	}
}

func TestMultiWordSpanningLines(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	// 64-byte read at a line boundary touches exactly 2 lines (32-byte
	// lines) and counts 16 word accesses.
	h.Read(0x2000, 64)
	c := h.Counts()
	if c.Accesses() != 16 {
		t.Errorf("Accesses = %d, want 16", c.Accesses())
	}
	if probes := c.LineProbes(); probes != 2 {
		t.Errorf("line probes = %d, want 2", probes)
	}
	// 14 non-first words pipelined at 1 cycle each + 2 DRAM fills.
	want := 2*cfg.DRAMCycles + 14*cfg.PipelinedWord
	if h.Cycles() != want {
		t.Errorf("cycles = %d, want %d", h.Cycles(), want)
	}
}

func TestUnalignedAccessSpansExtraLine(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	// 8 bytes starting 4 before a line boundary touch 2 lines.
	h.Read(0x2000-4, 8)
	if probes := h.Counts().LineProbes(); probes != 2 {
		t.Errorf("line probes = %d, want 2", probes)
	}
}

func TestSequentialBeatsPointerChase(t *testing.T) {
	cfg := memsim.DefaultConfig()
	seq := memsim.New(cfg)
	for i := uint32(0); i < 4096; i++ {
		seq.Read(0x10000+i*4, 4)
	}
	chase := memsim.New(cfg)
	// Strided by line size: every access opens a new line.
	for i := uint32(0); i < 4096; i++ {
		chase.Read(0x10000+i*cfg.L1.LineBytes*7, 4)
	}
	if seq.Cycles() >= chase.Cycles() {
		t.Errorf("sequential %d cycles >= scattered %d cycles; locality model broken",
			seq.Cycles(), chase.Cycles())
	}
}

func TestOpCycles(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	h.Op(7)
	h.Op(3)
	if h.Cycles() != 10 {
		t.Errorf("Cycles = %d, want 10", h.Cycles())
	}
	if h.Counts().OpCycles != 10 {
		t.Errorf("OpCycles = %d, want 10", h.Counts().OpCycles)
	}
}

func TestSeconds(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	h.Op(uint64(cfg.ClockHz)) // one second worth of cycles
	if got := h.Seconds(); got < 0.999 || got > 1.001 {
		t.Errorf("Seconds = %v, want ~1", got)
	}
}

func TestHitPlusMissEqualsProbes(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	for i := uint32(0); i < 10000; i++ {
		h.Read(0x1000+(i*97)%65536, 4)
		if i%3 == 0 {
			h.Write(0x9000+(i*31)%4096, 8)
		}
	}
	c := h.Counts()
	if c.L1Hits+c.L2Hits+c.DRAMFills != c.LineProbes() {
		t.Error("per-level counters do not partition the probes")
	}
	if c.LineProbes() == 0 || c.Accesses() < c.LineProbes() {
		t.Error("accesses must be at least the number of line probes")
	}
}

func TestNonPowerOfTwoGeometry(t *testing.T) {
	cfg := memsim.DefaultConfig()
	cfg.L1 = memsim.CacheGeometry{SizeBytes: 3 * 1024, LineBytes: 32, Assoc: 4} // 24 sets
	h := memsim.New(cfg)
	for i := uint32(0); i < 1000; i++ {
		h.Read(i*64, 4)
	}
	c := h.Counts()
	if c.LineProbes() != 1000 {
		t.Fatalf("probes = %d, want 1000", c.LineProbes())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, memsim.Counts) {
		h := memsim.New(memsim.DefaultConfig())
		for i := uint32(0); i < 5000; i++ {
			h.Read(0x1000+(i*i)%100000, 4)
			h.Write(0x80000+(i*13)%5000, 12)
		}
		return h.Cycles(), h.Counts()
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Fatal("identical access streams produced different accounting")
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	if h.Config() != cfg {
		t.Fatal("Config() does not round-trip")
	}
}

func TestGeometrySets(t *testing.T) {
	g := memsim.CacheGeometry{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 2}
	if got := g.Sets(); got != 128 {
		t.Fatalf("Sets = %d, want 128", got)
	}
}

func TestWriteAllocates(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	h.Write(0x4000, 4) // miss, must install the line
	h.Read(0x4000, 4)  // then hit
	c := h.Counts()
	if c.L1Hits != 1 || c.DRAMFills != 1 {
		t.Fatalf("write-allocate broken: %+v", c)
	}
}

func TestInclusiveFill(t *testing.T) {
	cfg := memsim.DefaultConfig()
	h := memsim.New(cfg)
	h.Read(0x8000, 4) // DRAM -> fills L2 and L1
	// Evict from L1 with same-set traffic; the line must survive in L2.
	stride := cfg.L1.Sets() * cfg.L1.LineBytes
	for i := uint32(1); i <= cfg.L1.Assoc; i++ {
		h.Read(0x8000+i*stride, 4)
	}
	before := h.Counts().L2Hits
	h.Read(0x8000, 4)
	if h.Counts().L2Hits != before+1 {
		t.Fatal("inclusive fill broken: evicted L1 line missing from L2")
	}
}

func TestAbortCheckFires(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	polled := 0
	h.SetAbortCheck(func() bool {
		polled++
		return polled >= 3
	})
	defer func() {
		r := recover()
		ab, ok := r.(*memsim.Aborted)
		if !ok {
			t.Fatalf("recovered %v, want *memsim.Aborted", r)
		}
		// One poll per full batch: the third fires after the third batch.
		if ab.Counts.Accesses() != 3*memsim.BatchAccesses || ab.Counts.LineProbes() != 3*memsim.BatchAccesses || ab.Cycles == 0 {
			t.Errorf("aborted snapshot %+v, want %d accesses and probes", ab, 3*memsim.BatchAccesses)
		}
		if polled != 3 {
			t.Errorf("check polled %d times, want 3", polled)
		}
	}()
	for i := uint32(0); ; i++ {
		h.Read(i*64, 4) // distinct lines: one word and one probe per read
	}
}

func TestAbortCheckDisable(t *testing.T) {
	h := memsim.New(memsim.DefaultConfig())
	h.SetAbortCheck(func() bool { return true })
	h.SetAbortCheck(nil)
	for i := uint32(0); i < memsim.BatchAccesses; i++ {
		h.Read(i*64, 4) // a full batch: no poll may fire
	}
	h.Read(0x1000, 64) // must not panic
	if h.Counts().Accesses() == 0 {
		t.Error("access not simulated after disabling the check")
	}
}
