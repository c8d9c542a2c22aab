package memsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
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

// accessLog is an EventSink that keeps the addresses and sizes of every
// access a run issues.
type accessLog struct{ addr, size []uint32 }

func (l *accessLog) RecordBatch(b memsim.Batch) {
	l.addr = append(l.addr, b.Addr...)
	l.size = append(l.size, b.Size...)
}

func (l *accessLog) RecordOps(uint64) {}

// BenchmarkProbeKernel measures the probe kernel alone on real access
// streams: each paper application's original-assignment run over a
// 2000-packet trace, captured once, then probed through a cold default
// LineSim a live batch (BatchAccesses accesses) per ProbeAccesses call,
// as a Hierarchy drives it. Reported as ns per access.
func BenchmarkProbeKernel(b *testing.B) {
	cfg := memsim.DefaultConfig()
	for _, a := range netapps.All() {
		b.Run(a.Name(), func(b *testing.B) {
			tr, err := trace.Builtin(a.TraceNames()[0], 2000)
			if err != nil {
				b.Fatal(err)
			}
			p := platform.New(cfg)
			log := &accessLog{}
			p.Mem.SetEventSink(log)
			if _, err := a.Run(tr, p, apps.Original(a), a.DefaultKnobs(), nil); err != nil {
				b.Fatal(err)
			}
			p.Mem.SetEventSink(nil)
			ls := memsim.NewLineSim(cfg)
			for b.Loop() {
				ls.Reset(cfg)
				for lo := 0; lo < len(log.addr); lo += memsim.BatchAccesses {
					hi := min(lo+memsim.BatchAccesses, len(log.addr))
					ls.ProbeAccesses(log.addr[lo:hi], log.size[lo:hi])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log.addr)), "ns/access")
		})
	}
}
