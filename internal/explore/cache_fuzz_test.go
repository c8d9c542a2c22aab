package explore

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/memsim"
)

// fuzzSeedImages builds the sectioned encodings Load accepts — lean and
// with streams, from a cache holding an entry of every persisted kind;
// with one compositional capture's schedule and lanes; and the lean
// image carrying a section of an id no writer assigns, which a load
// skips.
func fuzzSeedImages(tb testing.TB) [][]byte {
	tb.Helper()
	gs, err := memsim.NewGeomSim([]memsim.Config{memsim.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	gs.ProbeAccesses([]uint32{0x1000, 0x1004, 0x9000, 0x1000}, []uint32{4, 4, 64, 4})
	prof := gs.Profile()
	prof.ReadWords, prof.WriteWords, prof.OpCycles, prof.Peak = 8, 2, 40, 512

	c := NewCache()
	c.store("k1", Result{App: "URL"}, "prune=0 k=2")
	c.store("k2", Result{App: "URL", Aborted: true, Pruned: true}, "prune=1 k=2")
	c.streams.put(c, "S", streamEntry{App: "URL", Packets: 300, Stream: mkStream(false)})
	c.rprofiles.put(c, reuseProfileKey("S", prof.LineBytes), prof)
	c.SetCheckpoint(Checkpoint{App: "URL", Ctx: "prune=0 k=2", Step: 1, Settled: 42})

	var lean, full bytes.Buffer
	if err := c.Save(&lean); err != nil {
		tb.Fatal(err)
	}
	if err := c.SaveWithStreams(&full); err != nil {
		tb.Fatal(err)
	}

	a, err := netapps.ByName("Route")
	if err != nil {
		tb.Fatal(err)
	}
	eng := NewEngine(a, Options{TracePackets: 4, Arenas: true})
	if _, err := eng.Simulate(context.Background(), Configs(a)[0], nil); err != nil {
		tb.Fatal(err)
	}
	var composed bytes.Buffer
	if err := eng.Cache().SaveWithStreams(&composed); err != nil {
		tb.Fatal(err)
	}

	end := lean.Len() - frameHeaderLen - 4 // the end marker: a header and an empty payload's CRC
	var unknown bytes.Buffer
	unknown.Write(lean.Bytes()[:end])
	if err := writeFrame(&unknown, secUnknown, []byte("a section this reader does not know")); err != nil {
		tb.Fatal(err)
	}
	unknown.Write(lean.Bytes()[end:])
	return [][]byte{lean.Bytes(), full.Bytes(), composed.Bytes(), unknown.Bytes()}
}

// secUnknown is a section id no writer assigns.
const secUnknown byte = 0x40

// TestLoadSkipsUnknownSection pins forward compatibility: a section id
// the reader does not know is skipped, and everything around it loads.
func TestLoadSkipsUnknownSection(t *testing.T) {
	imgs := fuzzSeedImages(t)
	want := NewCache()
	if err := want.Load(bytes.NewReader(imgs[0])); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	rep, err := c.LoadReported(bytes.NewReader(imgs[3]))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 0 || rep.Truncated || !slices.Contains(rep.Sections, sectionName(secUnknown)) {
		t.Fatalf("load report %+v", rep)
	}
	if c.Len() != want.Len() || c.Len() == 0 {
		t.Fatalf("loaded %d entries, want %d", c.Len(), want.Len())
	}
	if _, ok := c.Checkpoint(); !ok {
		t.Fatal("the checkpoint did not load")
	}
}

// FuzzCacheLoad throws arbitrary bytes — seeded with every real cache
// encoding plus truncated and bit-flipped mutants of each — at the
// loader. The contract under fuzz: Load never panics, and whenever it
// reports success the resulting cache is coherent enough to save and
// reload cleanly (no truncation, no dropped sections, matching entry
// count). Wrong-but-plausible salvage would surface here as a re-save
// that fails or loses entries.
func FuzzCacheLoad(f *testing.F) {
	for _, img := range fuzzSeedImages(f) {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:len(img)-1])
		for _, off := range []int{1, 9, len(img) / 3, 2 * len(img) / 3} {
			mut := append([]byte(nil), img...)
			mut[off%len(mut)] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add([]byte("DDTCACHE"))
	f.Add([]byte("DDTCACHE\x05\x00\x00\x00"))
	f.Add([]byte("DDTCACHE\x63\x00\x00\x00")) // unsupported version

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		rep, err := c.LoadReported(bytes.NewReader(data))
		if err != nil {
			return // a clean rejection is always acceptable
		}
		var buf bytes.Buffer
		if err := c.SaveWithStreams(&buf); err != nil {
			t.Fatalf("cache loaded from %d bytes (%s) cannot re-save: %v", len(data), rep.Format, err)
		}
		c2 := NewCache()
		rep2, err := c2.LoadReported(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-saved cache does not load: %v", err)
		}
		if rep2.Truncated || len(rep2.Dropped) != 0 {
			t.Fatalf("re-saved cache unhealthy: %+v", rep2)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("re-save round trip kept %d of %d entries", c2.Len(), c.Len())
		}
	})
}

// TestCacheLoadMutationSweep is the deterministic core of the fuzz
// contract, run on every plain `go test`: for each real encoding, every
// truncation length and a bit flip at every offset must either load
// (possibly salvaging) or fail cleanly — never panic — and never
// hard-fail past its preamble: a damaged section drops or truncates the
// scan while the rest loads.
func TestCacheLoadMutationSweep(t *testing.T) {
	for _, img := range fuzzSeedImages(t) {
		preamble := len(cacheMagic) + 4
		for n := 0; n <= len(img); n++ {
			_, err := NewCache().LoadReported(bytes.NewReader(img[:n]))
			if err != nil && n >= preamble {
				t.Fatalf("sectioned image truncated to %d bytes: hard error %v, want salvage", n, err)
			}
		}
		for off := 0; off < len(img); off++ {
			mut := append([]byte(nil), img...)
			mut[off] ^= 0xA5
			_, err := NewCache().LoadReported(bytes.NewReader(mut))
			if err != nil && off >= preamble {
				t.Fatalf("sectioned image flipped at %d: hard error %v, want salvage or truncation", off, err)
			}
		}
	}
}
