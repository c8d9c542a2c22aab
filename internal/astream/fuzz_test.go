package astream_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// FuzzRecorderRoundTrip drives the stream encoder with an arbitrary
// event script and checks the decode side reproduces it exactly: the
// decoded access arrays and write bits must match what was recorded, and
// so must the decoded and replayed words, op cycles and peak. The script
// bytes steer address deltas across all four width tags, event counts
// across chunk boundaries, sizes on and off the compact 4-byte form, and
// op coalescing.
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
		var want recorded
		rec := astream.NewRecorder()
		var addr uint32 = 0x1000_0000
		var pendingOps uint64
		// flush counts pending op cycles as one event: the recorder folds
		// them into the next access, or writes them out before a peak and
		// at the end.
		flush := func() {
			if pendingOps != 0 {
				want.ops += pendingOps
				want.events++
				pendingOps = 0
			}
		}
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
				flush()
				want.access(op%4 == 1, addr, size)
				want.events++
			case 2: // standalone ops
				rec.RecordOps(ops)
				pendingOps += ops
			case 3: // footprint peak growth
				want.peak += uint64(delta)%4096 + 1
				rec.RecordPeak(want.peak)
				flush()
				want.events++
			}
		}
		flush()
		st := rec.Finish(partial)
		if st.Partial != partial {
			t.Fatalf("partial flag lost")
		}
		checkDecoded(t, st, want)
	})
}

// FuzzStreamDecodeArbitrary feeds arbitrary bytes as one encoded chunk
// to both callers of the decoder: Replay reads it as a whole-run stream,
// Unpack reads it, followed by one segment terminator, as a lane that
// declares the counts its events hold. Neither may panic, and both must
// accept or refuse the same access events — with the same error — up to
// the first segment terminator in the chunk, which the stream refuses.
func FuzzStreamDecodeArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x01, 0x02})
	f.Add([]byte{0x01, 0xff}) // truncated op varint
	f.Add([]byte{0x03, 0x05, 0x06})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x82, 0x02, 0x00})                         // zero-size access
	f.Add([]byte{0x82, 0x02, 0x80, 0x80, 0x80, 0x80, 0x20}) // 2^33-byte access
	f.Fuzz(func(t *testing.T, chunk []byte) {
		st := &astream.Stream{Chunks: [][]byte{chunk}}
		accesses, segments, words, decErr := astream.DecodeCounts(st.Chunks)
		lane := asLane(st)
		lane.Accesses, lane.Segments = accesses, segments+1
		_, laneErr := lane.Unpack()
		if (laneErr == nil) != (decErr == nil) {
			t.Fatalf("lane with its own counts: Unpack err=%v, decode err=%v", laneErr, decErr)
		}
		// Arbitrary bytes can encode accesses of up to 4 GiB whose line
		// walk is legal but slow; a real recorder never produces one, so
		// bound the replay side.
		if words > 1<<22 {
			return
		}
		_, _, replayErr := astream.Replay(st, []memsim.Config{memsim.DefaultConfig()}, astream.ReplayOpts{})
		switch {
		case segments > 0:
			if !errors.Is(replayErr, astream.ErrStreamSeg) {
				t.Fatalf("stream holding a segment terminator: Replay err=%v", replayErr)
			}
		case (replayErr == nil) != (laneErr == nil):
			t.Fatalf("decoders disagree: Unpack err=%v, Replay err=%v", laneErr, replayErr)
		case replayErr != nil && replayErr.Error() != laneErr.Error():
			t.Fatalf("decoders refuse differently: Unpack err=%v, Replay err=%v", laneErr, replayErr)
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
