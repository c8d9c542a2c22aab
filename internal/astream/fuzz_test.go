package astream_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// FuzzRecorderRoundTrip drives the stream encoder with an arbitrary
// event script and checks the decode side reproduces it exactly: the
// decoded access/op/peak sequence must match what was recorded, and a
// replay's invariant counters must agree with the decoded totals. The
// script bytes steer address deltas across all four width tags, event
// counts across chunk boundaries, sizes on and off the compact 4-byte
// form, and op coalescing.
func FuzzRecorderRoundTrip(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0x01, 0xff, 0x00, 0x80, 0x7f, 0x03, 0x20}, false)
	// Width-tag edges: deltas of 1, 2, 3 and 4 bytes, forward and back.
	f.Add([]byte{
		0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, // tiny forward delta
		0x00, 0xff, 0xff, 0x00, 0x00, 0x04, 0x00, // 2-byte delta
		0x00, 0xff, 0xff, 0xff, 0x00, 0x04, 0x00, // 3-byte delta
		0x00, 0xff, 0xff, 0xff, 0xff, 0x04, 0x00, // 4-byte (negative) delta
	}, true)
	f.Add(bytesRepeat([]byte{0x40, 0x10, 0x20, 0x00, 0x00, 0x08, 0x05}, 64), false)
	f.Fuzz(func(t *testing.T, script []byte, partial bool) {
		type ev struct {
			kind astream.EventKind
			addr uint32
			size uint32
			n    uint64
		}
		var want []ev
		var wantReads, wantWrites, wantOps uint64

		rec := astream.NewRecorder()
		var addr uint32 = 0x1000_0000
		var peak uint64
		var pendingOps uint64
		// Each 7-byte record is one scripted event; the first byte picks
		// the action, the rest parameterize it.
		for i := 0; i+7 <= len(script); i += 7 {
			op := script[i]
			delta := binary.LittleEndian.Uint32(script[i+1 : i+5])
			size := uint32(script[i+5])
			ops := uint64(script[i+6])
			switch op % 4 {
			case 0, 1: // access (write when op%4==1)
				addr += delta
				rec.RecordOps(ops)
				pendingOps += ops
				rec.RecordAccess(op%4 == 1, addr, size, 0)
				if size == 0 {
					continue // no-op access; its ops carry over
				}
				if pendingOps != 0 {
					want = append(want, ev{kind: astream.EvOp, n: pendingOps})
					wantOps += pendingOps
					pendingOps = 0
				}
				kind := astream.EvRead
				words := uint64((size + 3) / 4)
				if op%4 == 1 {
					kind = astream.EvWrite
					wantWrites += words
				} else {
					wantReads += words
				}
				want = append(want, ev{kind: kind, addr: addr, size: size})
			case 2: // standalone ops
				rec.RecordOps(ops)
				pendingOps += ops
			case 3: // footprint peak growth
				peak += uint64(delta)%4096 + 1
				rec.RecordPeak(peak)
				if pendingOps != 0 {
					want = append(want, ev{kind: astream.EvOp, n: pendingOps})
					wantOps += pendingOps
					pendingOps = 0
				}
				want = append(want, ev{kind: astream.EvPeak, n: peak})
			}
		}
		if pendingOps != 0 {
			want = append(want, ev{kind: astream.EvOp, n: pendingOps})
			wantOps += pendingOps
		}
		st := rec.Finish(partial)
		if st.Partial != partial {
			t.Fatalf("partial flag lost")
		}

		var got []ev
		if err := st.ForEach(func(e astream.Event) bool {
			got = append(got, ev{kind: e.Kind, addr: e.Addr, size: e.Size, n: e.N})
			return true
		}); err != nil {
			t.Fatalf("decode of recorded stream failed: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d events, recorded %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: decoded %+v, recorded %+v", i, got[i], want[i])
			}
		}

		if partial {
			return // partial streams must refuse to replay
		}
		costs, _, err := astream.Replay(st, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{})
		if err != nil {
			t.Fatalf("replay of recorded stream failed: %v", err)
		}
		cost := costs[0]
		if cost.Counts.ReadWords != wantReads || cost.Counts.WriteWords != wantWrites {
			t.Fatalf("replay words %d/%d, recorded %d/%d",
				cost.Counts.ReadWords, cost.Counts.WriteWords, wantReads, wantWrites)
		}
		if cost.Counts.OpCycles != wantOps {
			t.Fatalf("replay op cycles %d, recorded %d", cost.Counts.OpCycles, wantOps)
		}
		if cost.Peak != peak {
			t.Fatalf("replay peak %d, recorded %d", cost.Peak, peak)
		}
	})
}

// FuzzStreamDecodeArbitrary feeds arbitrary bytes to the decoders as an
// encoded chunk: they must either decode it or reject it with an error —
// never panic, and the batched replay decoder must agree with ForEach on
// acceptance.
func FuzzStreamDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x01, 0x02})
	f.Add([]byte{0x01, 0xff}) // truncated op varint
	f.Add([]byte{0x03, 0x05, 0x06})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, chunk []byte) {
		st := &astream.Stream{Chunks: [][]byte{chunk}}
		hasSeg := false
		var words uint64
		forEachErr := st.ForEach(func(e astream.Event) bool {
			hasSeg = hasSeg || e.Kind == astream.EvSeg
			words += uint64((e.Size + 3) / 4)
			return true
		})
		// Arbitrary bytes can encode a single multi-hundred-MB access
		// whose line walk is legal but takes minutes; a real recorder
		// never produces one, so bound the replay side.
		if words > 1<<22 {
			return
		}
		_, _, replayErr := astream.Replay(st, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{})
		// A chunk with segment events is valid for ForEach but the flat
		// replay decoder rejects tagSeg; everything else must agree.
		if (forEachErr == nil) != (replayErr == nil) && !hasSeg {
			t.Fatalf("decoders disagree: ForEach err=%v, Replay err=%v", forEachErr, replayErr)
		}
	})
}

// FuzzReuseProfileDecode feeds arbitrary bytes to the reuse-profile
// decoder: it must either reject them with an error or yield a profile
// that is internally consistent — histograms summing to the probe
// count, costs that re-add to it, and a canonical re-encode that
// decodes back — never panic, never silently miscount.
func FuzzReuseProfileDecode(f *testing.F) {
	// Seed with a real profile from a tiny all-geometry pass, plus its
	// truncations and a few corruptions.
	family := []memsim.Config{memsim.DefaultConfig()}
	big := memsim.DefaultConfig()
	big.L1.SizeBytes, big.L2.Assoc = 16<<10, 16
	family = append(family, big)
	gs, err := memsim.NewGeomSim(family)
	if err != nil {
		f.Fatal(err)
	}
	gs.ProbeAccesses(
		[]uint32{0x1000, 0x1004, 0x8000, 0x1000, 0x20040, 0xfff0},
		[]uint32{4, 4, 64, 4, 12, 32},
	)
	prof := gs.Profile()
	prof.ReadWords, prof.WriteWords, prof.OpCycles, prof.Peak = 20, 3, 99, 4096
	seed, err := prof.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:2])
	f.Add([]byte{})
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)

	// A sampled (descriptor + variance arrays) profile, its
	// truncations and corruptions: the sampling fields are validated as
	// hard as the histograms.
	sgs, err := memsim.NewGeomSimSampled(family, 2)
	if err != nil {
		f.Fatal(err)
	}
	sgs.ProbeAccesses(
		[]uint32{0x1000, 0x1004, 0x8000, 0x1000, 0x20040, 0xfff0, 0x1000, 0x8000},
		[]uint32{4, 4, 64, 4, 12, 32, 4, 64},
	)
	sprof := sgs.Profile()
	sprof.ReadWords, sprof.WriteWords, sprof.OpCycles, sprof.Peak = 20, 3, 99, 4096
	sseed, err := sprof.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sseed)
	f.Add(sseed[:len(sseed)-3])
	f.Add(sseed[:len(sseed)*2/3])
	smut := append([]byte(nil), sseed...)
	smut[len(smut)/2] ^= 0xff
	f.Add(smut)

	f.Fuzz(func(t *testing.T, data []byte) {
		var p memsim.ReuseProfile
		if err := p.UnmarshalBinary(data); err != nil {
			return // rejected: fine, as long as it never panics
		}
		// Accepted profiles must be internally consistent: any covered
		// configuration's level counts re-add to the probe total (the
		// decoder's histogram-sum validation guarantees no silent
		// miscount can slip through).
		for _, cfg := range family {
			cost, ok := astream.CostFromProfile(&p, cfg)
			if !ok {
				continue
			}
			probes := cost.Counts.L1Hits + cost.Counts.L2Hits + cost.Counts.DRAMFills
			if probes != p.Probes {
				t.Fatalf("accepted profile miscounts: %d level probes vs %d total", probes, p.Probes)
			}
			if cost.Cycles != cfg.CyclesFor(cost.Counts, p.Pipelined) {
				t.Fatalf("accepted profile cost breaks the cycle closed form")
			}
		}
		// Re-encoding an accepted profile must decode back.
		raw, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted profile failed: %v", err)
		}
		var q memsim.ReuseProfile
		if err := q.UnmarshalBinary(raw); err != nil {
			t.Fatalf("re-encoded profile rejected: %v", err)
		}
	})
}

func bytesRepeat(b []byte, n int) []byte {
	out := make([]byte, 0, len(b)*n)
	for i := 0; i < n; i++ {
		out = append(out, b...)
	}
	return out
}
