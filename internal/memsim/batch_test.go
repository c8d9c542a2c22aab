package memsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// batchStream draws refStream events until exactly n accesses are
// queued, so the stream ends on a known batch position.
func batchStream(rng *rand.Rand, n int) []refOp {
	var ops []refOp
	for queued := 0; queued < n; {
		for _, o := range refStream(rng, 64) {
			if queued == n && o.queued() {
				break
			}
			ops = append(ops, o)
			if o.queued() {
				queued++
			}
		}
	}
	return ops
}

// checkAtPoints drives a Hierarchy and the reference model with ops,
// reading and comparing the counts only after the events in reads and
// at the end, with an abort check armed that never fires. The check
// must be polled once per BatchAccesses queued accesses, wherever the
// reads fall.
func checkAtPoints(t *testing.T, name string, cfg memsim.Config, ops []refOp, reads map[int]bool) {
	t.Helper()
	h, ref := memsim.New(cfg), newRefHierarchy(cfg)
	polls, queued := 0, 0
	h.SetAbortCheck(func() bool { polls++; return false })
	check := func(at string) {
		t.Helper()
		if h.Counts() != ref.counts || h.Cycles() != ref.cycles {
			t.Fatalf("%s, %s: %s:\n got  %+v cycles %d\n want %+v cycles %d",
				name, cfgName(cfg), at, h.Counts(), h.Cycles(), ref.counts, ref.cycles)
		}
		if polls != queued/memsim.BatchAccesses {
			t.Fatalf("%s, %s: %s: %d polls after %d accesses", name, cfgName(cfg), at, polls, queued)
		}
	}
	for i, o := range ops {
		o.apply(h)
		o.applyRef(ref)
		if o.queued() {
			queued++
		}
		if reads[i] {
			check(fmt.Sprintf("read after event %d", i))
		}
	}
	check("end of stream")
}

// TestHierarchyBatchBoundaries pins batching to the reference model:
// the counts a Hierarchy reports equal the textbook model's whenever
// they are read — at seeded points mid-batch, or only at the end of a
// stream of exactly one batch, or of one batch plus one access — over
// streams holding zero-size accesses, accesses that wrap the 32-bit
// space and spans longer than the 2-way kernel's line queue, on 2-way,
// 4-way and non-power-of-two geometries.
func TestHierarchyBatchBoundaries(t *testing.T) {
	const batch = memsim.BatchAccesses
	rng := rand.New(rand.NewSource(27))
	four := memsim.DefaultConfig()
	four.L1 = memsim.CacheGeometry{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 4}
	odd := memsim.DefaultConfig()
	odd.L1 = memsim.CacheGeometry{SizeBytes: 32 * 2 * 24, LineBytes: 32, Assoc: 2}
	odd.L2 = memsim.CacheGeometry{SizeBytes: 32 * 8 * 96, LineBytes: 32, Assoc: 8}
	small := memsim.DefaultConfig()
	small.L1 = memsim.CacheGeometry{SizeBytes: 1 << 10, LineBytes: 16, Assoc: 2}
	small.L2 = memsim.CacheGeometry{SizeBytes: 4 << 10, LineBytes: 16, Assoc: 4}

	// Spans of 64 KiB cover 1024 to 4096 lines: longer than the line
	// queue at every line size, and a sweep of 128-line spans fills it
	// mid-batch.
	var spans []refOp
	for i := uint32(0); i < 3*batch; i++ {
		switch {
		case i%512 == 0:
			spans = append(spans, refOp{addr: i * 4096, size: 1 << 16, write: i%1024 == 0})
		case i%3 == 0:
			spans = append(spans, refOp{addr: 0x100000 + i*4096, size: 128 * 32})
		case i%7 == 0:
			spans = append(spans, refOp{addr: ^uint32(0) - i%32, size: 40}) // wraps
		case i%11 == 0:
			spans = append(spans, refOp{addr: i * 64, size: 0})
		default:
			spans = append(spans, refOp{addr: i * 40, size: 4 + i%12})
		}
	}
	streams := []struct {
		name string
		ops  []refOp
	}{
		{"one batch", batchStream(rng, batch)},
		{"one batch plus one", batchStream(rng, batch+1)},
		{"three batches", batchStream(rng, 3*batch)},
		{"long spans", spans},
	}
	for _, cfg := range []memsim.Config{memsim.DefaultConfig(), four, odd, small} {
		for _, s := range streams {
			checkAtPoints(t, s.name, cfg, s.ops, nil)
			reads := make(map[int]bool)
			for range 12 {
				reads[rng.Intn(len(s.ops))] = true
			}
			checkAtPoints(t, s.name+", seeded reads", cfg, s.ops, reads)
		}
	}
}
