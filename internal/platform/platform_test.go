package platform_test

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/platform"
)

func TestFreshPlatformIsZero(t *testing.T) {
	p := platform.Default()
	v := p.Metrics()
	if v.Energy != 0 || v.Time != 0 || v.Accesses != 0 || v.Footprint != 0 {
		t.Fatalf("fresh platform metrics = %v, want all zero", v)
	}
}

func TestMetricsReflectActivity(t *testing.T) {
	p := platform.Default()
	addr := p.Heap.Alloc(64)
	for i := 0; i < 100; i++ {
		p.Mem.Read(addr, 64)
		p.Mem.Write(addr, 4)
	}
	v := p.Metrics()
	if v.Accesses != 100*(16+1) {
		t.Errorf("Accesses = %v, want 1700", v.Accesses)
	}
	if v.Energy <= 0 || v.Time <= 0 {
		t.Errorf("Energy/Time = %v/%v, want positive", v.Energy, v.Time)
	}
	if v.Footprint != 64+8 {
		t.Errorf("Footprint = %v, want 72 (64 payload + 8 header)", v.Footprint)
	}
}

func TestIndependentPlatforms(t *testing.T) {
	a, b := platform.Default(), platform.Default()
	a.Mem.Read(0x1000, 4)
	if b.Metrics().Accesses != 0 {
		t.Fatal("activity on one platform leaked into another")
	}
}

func TestCustomConfig(t *testing.T) {
	cfg := memsim.DefaultConfig()
	cfg.ClockHz = 0.8e9
	slow := platform.New(cfg)
	fast := platform.Default()
	slow.Mem.Op(1000)
	fast.Mem.Op(1000)
	if slow.Metrics().Time <= fast.Metrics().Time {
		t.Error("halving the clock must increase execution time")
	}
}

func TestAbortWhenSeesRunningCosts(t *testing.T) {
	p := platform.Default()
	var seen []float64
	p.AbortWhen(func(v metrics.Vector) bool {
		seen = append(seen, v.Accesses)
		return len(seen) == 3
	})
	defer func() {
		if _, ok := recover().(*memsim.Aborted); !ok {
			t.Fatal("AbortWhen did not stop the simulation")
		}
		// One poll per full batch, each seeing the batch's accesses.
		for i, a := range seen {
			if want := float64((i + 1) * memsim.BatchAccesses); a != want {
				t.Errorf("poll %d saw %v accesses, want %v", i, a, want)
			}
		}
	}()
	for i := uint32(0); ; i++ {
		p.Mem.Read(i*64, 4)
	}
}
