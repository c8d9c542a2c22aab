package astream_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/ipchains"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
)

// BenchmarkLaneUnpack measures the first-use decode of a loaded lane
// store: every lane of IPchains at 8000 packets, captured once per
// library kind (all roles of a run on the same kind) and serialized,
// is decoded back by SubStream.Unpack on each iteration. Throughput is
// reported over the encoded bytes.
func BenchmarkLaneUnpack(b *testing.B) {
	a := ipchains.App{}
	tr, err := trace.Builtin(a.TraceNames()[0], 8000)
	if err != nil {
		b.Fatal(err)
	}
	roles := apps.RoleNames(a)
	var subs []*astream.SubStream
	var encoded int64
	for _, k := range ddt.AllKinds() {
		assign := make(apps.Assignment, len(roles))
		for _, r := range roles {
			assign[r] = k
		}
		p := platform.New(memsim.DefaultConfig())
		p.UseArenas(roles)
		cr := p.CaptureComposed(nil)
		if _, err := a.Run(tr, p, assign, a.DefaultKnobs(), nil); err != nil {
			b.Fatal(err)
		}
		p.EndCapture()
		_, lanes := cr.Finish()
		for _, u := range lanes {
			s := u.Encode()
			subs = append(subs, s)
			encoded += int64(s.SizeBytes())
		}
	}
	b.SetBytes(encoded)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range subs {
			if _, err := s.Unpack(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
