package memsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// chaseStream builds a fixed pointer-chase-plus-record workload shaped
// like a DDT traversal: a 256-node singly linked list of 48-byte
// records scattered over a 64 KiB heap (a 12 KiB working set: a little
// over the default 8 KiB L1, well inside its 128 KiB L2), walked 16
// times in list order. Each visit loads the next pointer, loads a
// 4-byte key, charges a comparison, and every eighth visit rewrites the
// 32-byte payload.
func chaseStream() (ops []refOp, accesses int) {
	const nodes, recBytes, heap = 256, 48, 64 << 10
	rng := rand.New(rand.NewSource(1))
	slots := rng.Perm(heap / recBytes)[:nodes]
	for pass := 0; pass < 16; pass++ {
		for i, slot := range slots {
			base := uint32(0x10000 + slot*recBytes)
			ops = append(ops,
				refOp{addr: base, size: 4},
				refOp{addr: base + 4, size: 4},
				refOp{isOp: true, n: 2})
			accesses += 2
			if i%8 == 0 {
				ops = append(ops, refOp{addr: base + 16, size: 32, write: true})
				accesses++
			}
		}
	}
	return ops, accesses
}

// BenchmarkHierarchyAccess measures the live simulator's per-access cost
// below the campaign: one op is the whole synthetic stream through a
// fresh default hierarchy, also reported as ns per memory access.
func BenchmarkHierarchyAccess(b *testing.B) {
	stream, accesses := chaseStream()
	cfg := memsim.DefaultConfig()
	for b.Loop() {
		h := memsim.New(cfg)
		for _, o := range stream {
			o.apply(h)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
}
