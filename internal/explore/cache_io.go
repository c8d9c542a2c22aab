package explore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"time"

	"repro/internal/astream"
	"repro/internal/faultio"
)

// Sectioned cache format (version 5).
//
// The file opens with an 8-byte magic and a little-endian uint32
// version, followed by a sequence of independently framed sections and
// a zero-length end marker:
//
//	"DDTCACHE" | version u32
//	[id u8 | len u64 | hcrc u32] payload [pcrc u32]   ... per section
//	[0xFF     | 0       | hcrc]          [pcrc]            end marker
//
// hcrc is CRC32C over the 9 header bytes (id, len), so a corrupted
// length can never drive a bogus allocation or mis-align the frame
// scan; pcrc is CRC32C over the payload. Each payload is one
// self-contained gob stream, so any section decodes (or fails) on its
// own: a section that fails its checksum or decode is dropped with a
// warning while every other section still loads — sound, because every
// store is independently rederivable (results re-simulate, lanes
// re-capture, profiles re-derive from their lanes). A file that ends
// before the end marker is a torn write: everything up to the last
// complete frame loads, the tail is reported as truncation.
//
// Only the current version loads: files of any other version, and
// files without the magic, are refused like any other non-cache input.
// The cache is a memo, and a cold run rebuilds it.
const (
	cacheMagic   = "DDTCACHE"
	cacheVersion = 5
)

// Section identifiers. Values are part of the on-disk format: never
// renumber, only append. Id 6 is retired and must not be reused. A load
// skips any id it does not know.
const (
	secResults    byte = 1
	secStreams    byte = 2
	secLanes      byte = 3
	secScheds     byte = 4
	secRProfiles  byte = 5
	secCheckpoint byte = 7
	secEnd        byte = 0xFF
)

// maxSectionBytes is the sanity cap on a framed section length. The
// header CRC already rejects corrupted lengths; this bounds the damage
// of a valid-looking frame from a hostile or scrambled file.
const maxSectionBytes = int64(1) << 40

// maxBufferedSection bounds the payload size the loader fully buffers
// to verify its checksum BEFORE gob sees a byte. Larger sections are
// streamed through a CRC tee instead (no double-residency for huge
// stream sections) with the decode guarded against panics and the
// merge still deferred until the checksum passes.
const maxBufferedSection = 64 << 20

// crcTable is the Castagnoli (CRC32C) polynomial table, the checksum
// of the sectioned format.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sectionName renders a section id for reports and warnings.
func sectionName(id byte) string {
	switch id {
	case secResults:
		return "results"
	case secStreams:
		return "streams"
	case secLanes:
		return "lanes"
	case secScheds:
		return "schedules"
	case secRProfiles:
		return "reuse-profiles"
	case secCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("section-%d", id)
	}
}

// frameHeaderLen is the framed section header size: id, length, and
// the CRC32C that guards them.
const frameHeaderLen = 1 + 8 + 4

// writeFrame writes one framed section: header (id, len, hcrc),
// payload, payload CRC.
func writeFrame(w io.Writer, id byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = id
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(hdr[:9], crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(tr[:])
	return err
}

// save serializes the cache to w in the sectioned format. Each
// store snapshots under its own lock and encodes outside it, one
// section at a time, so a save never holds any cache lock across
// serialization work.
func (c *Cache) save(w io.Writer, withStreams bool) error {
	if _, err := io.WriteString(w, cacheMagic); err != nil {
		return err
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], cacheVersion)
	if _, err := w.Write(ver[:]); err != nil {
		return err
	}
	var buf bytes.Buffer
	section := func(id byte, v any) error {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return fmt.Errorf("explore: encoding cache %s: %w", sectionName(id), err)
		}
		return writeFrame(w, id, buf.Bytes())
	}

	c.mu.RLock()
	entries := make(map[string]cacheEntry, len(c.m))
	for k, v := range c.m {
		entries[k] = v
	}
	c.mu.RUnlock()
	if err := section(secResults, entries); err != nil {
		return err
	}

	if withStreams {
		for _, s := range []struct {
			id byte
			v  any
		}{
			{secStreams, c.streams.snapshot(c)},
			{secLanes, wireLanes(c.lanes.snapshot(c))},
			{secScheds, wireScheds(c.scheds.snapshot(c))},
			{secRProfiles, c.rprofiles.snapshot(c)},
		} {
			if err := section(s.id, s.v); err != nil {
				return err
			}
		}
	}

	if ck, ok := c.Checkpoint(); ok {
		if err := section(secCheckpoint, ck); err != nil {
			return err
		}
	}
	return writeFrame(w, secEnd, nil)
}

// LoadReport describes what a load actually recovered: the detected
// format, the sections that merged, the sections dropped to checksum or
// decode failure, and whether the file ended before its end marker (a
// torn write — everything before the tear still loaded).
type LoadReport struct {
	Format    string
	Sections  []string
	Dropped   []string
	Truncated bool
}

// Load merges previously saved cache contents from r, overwriting
// entries with equal keys. It is how repeated CLI runs skip simulations
// earlier runs already paid for. Only the current format version
// loads. Salvageable damage (a corrupt section, a truncated tail) is
// absorbed silently here; use LoadReported to observe it.
func (c *Cache) Load(r io.Reader) error {
	_, err := c.LoadReported(r)
	return err
}

// LoadFile loads a cache file from path, reporting salvage. A missing
// file is an error here (callers that treat absence as a cold start
// check os.IsNotExist themselves).
func (c *Cache) LoadFile(path string) (LoadReport, error) {
	return c.LoadFileFS(faultio.OS{}, path)
}

// LoadFileFS is LoadFile over an injectable filesystem — the read-side
// seam the salvage tests drive torn reads and transient EIO through.
// Mirroring loadSectioned's contract, a read fault mid-file degrades to
// a prefix load reported as Truncated, never a hard error.
func (c *Cache) LoadFileFS(fs faultio.ReadFS, path string) (LoadReport, error) {
	f, err := fs.Open(path)
	if err != nil {
		return LoadReport{}, err
	}
	defer f.Close()
	return c.LoadReported(f)
}

// LoadReported is Load with salvage reporting. The error is reserved
// for unusable input — an unreadable reader, an unsupported version, a
// file that is not a cache at all; checksum-dropped sections and torn
// tails load what they can and report it instead.
func (c *Cache) LoadReported(r io.Reader) (LoadReport, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head, _ := br.Peek(len(cacheMagic) + 4)
	if len(head) < len(cacheMagic)+4 || string(head[:len(cacheMagic)]) != cacheMagic {
		return LoadReport{}, fmt.Errorf("explore: loading simulation cache: not a version-%d cache file", cacheVersion)
	}
	if version := binary.LittleEndian.Uint32(head[len(cacheMagic):]); version != cacheVersion {
		return LoadReport{}, fmt.Errorf("explore: loading simulation cache: unsupported format version %d", version)
	}
	if _, err := br.Discard(len(cacheMagic) + 4); err != nil {
		return LoadReport{}, fmt.Errorf("explore: loading simulation cache: %w", err)
	}
	return c.loadSectioned(br)
}

// loadSectioned scans the frame sequence, merging every section
// whose header and payload checksums hold and whose gob decodes.
func (c *Cache) loadSectioned(br *bufio.Reader) (LoadReport, error) {
	rep := LoadReport{Format: fmt.Sprintf("sectioned-v%d", cacheVersion)}
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			rep.Truncated = true // mid-header tear, or missing end marker
			return rep, nil
		}
		if crc32.Checksum(hdr[:9], crcTable) != binary.LittleEndian.Uint32(hdr[9:13]) {
			// The length cannot be trusted, so the scan cannot realign:
			// everything before this frame is loaded, the rest is lost.
			rep.Truncated = true
			return rep, nil
		}
		id := hdr[0]
		ln := int64(binary.LittleEndian.Uint64(hdr[1:9]))
		if id == secEnd && ln == 0 {
			var tr [4]byte
			if _, err := io.ReadFull(br, tr[:]); err != nil {
				rep.Truncated = true
			}
			return rep, nil
		}
		if ln < 0 || ln > maxSectionBytes {
			rep.Truncated = true
			return rep, nil
		}
		merge, ok, torn := c.readSectionPayload(br, id, ln)
		if torn {
			rep.Truncated = true
			return rep, nil
		}
		if !ok {
			rep.Dropped = append(rep.Dropped, sectionName(id))
			continue
		}
		merge()
		rep.Sections = append(rep.Sections, sectionName(id))
	}
}

// readSectionPayload consumes one frame's payload and trailing CRC,
// returning the staged merge to apply. ok is false (with the frame
// fully consumed, so the scan stays aligned) when the payload fails
// its checksum or decode; torn reports the reader ran out mid-frame.
// Small payloads are buffered and checksum-verified before gob sees a
// byte; payloads past maxBufferedSection stream through a CRC tee with
// the decode panic-guarded and the merge still deferred until the
// checksum passes.
func (c *Cache) readSectionPayload(br *bufio.Reader, id byte, ln int64) (merge func(), ok, torn bool) {
	if ln <= maxBufferedSection {
		payload := make([]byte, ln)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, false, true
		}
		var tr [4]byte
		if _, err := io.ReadFull(br, tr[:]); err != nil {
			return nil, false, true
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tr[:]) {
			return nil, false, false
		}
		merge, err := c.stageSection(id, bytes.NewReader(payload))
		if err != nil {
			return nil, false, false
		}
		return merge, true, false
	}

	lr := io.LimitReader(br, ln)
	h := crc32.New(crcTable)
	merge, decErr := c.stageSection(id, io.TeeReader(lr, h))
	// Drain whatever the decoder left (its own buffering, or an early
	// decode failure) so the CRC covers the whole payload and the scan
	// stays frame-aligned.
	if _, err := io.Copy(h, lr); err != nil {
		return nil, false, true
	}
	var tr [4]byte
	if _, err := io.ReadFull(br, tr[:]); err != nil {
		return nil, false, true
	}
	if h.Sum32() != binary.LittleEndian.Uint32(tr[:]) || decErr != nil {
		return nil, false, false
	}
	return merge, true, false
}

// stageSection decodes one section payload into staging structures and
// returns the closure that merges them into the cache — deferred so a
// payload that later fails its checksum never touches cache state.
// Unknown section ids decode to a no-op merge (forward compatibility:
// a reader may skip what it does not understand).
func (c *Cache) stageSection(id byte, r io.Reader) (func(), error) {
	switch id {
	case secResults:
		var m map[string]cacheEntry
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.mergeEntries(m) }, nil
	case secStreams:
		return stageTier(r, c, &c.streams)
	case secLanes:
		var m map[string]*astream.SubStream
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.lanes.putAll(c, laneEntries(m), false) }, nil
	case secScheds:
		var m map[string]schedWire
		if err := safeDecode(r, &m); err != nil {
			return nil, err
		}
		return func() { c.scheds.putAll(c, schedEntries(m), false) }, nil
	case secRProfiles:
		return stageTier(r, c, &c.rprofiles)
	case secCheckpoint:
		var ck Checkpoint
		if err := safeDecode(r, &ck); err != nil {
			return nil, err
		}
		return func() { c.SetCheckpoint(ck) }, nil
	default:
		if _, err := io.Copy(io.Discard, r); err != nil {
			return nil, err
		}
		return func() {}, nil
	}
}

// safeDecode gob-decodes one value with panics converted to errors:
// corrupt bytes that slip past a checksum must surface as a clean load
// failure, never a crash.
func safeDecode(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("explore: cache decode panic: %v", p)
		}
	}()
	return gob.NewDecoder(r).Decode(v)
}

// stageTier decodes a tier's section into the tier's map type and
// returns the put that merges it.
func stageTier[V any, P tierPolicy[V]](r io.Reader, c *Cache, t *tier[V, P]) (func(), error) {
	var m map[string]V
	if err := safeDecode(r, &m); err != nil {
		return nil, err
	}
	return func() { t.putAll(c, m, false) }, nil
}

// mergeEntries merges loaded results, overwriting equal keys.
func (c *Cache) mergeEntries(m map[string]cacheEntry) {
	if len(m) == 0 {
		return
	}
	c.mu.Lock()
	for k, v := range m {
		c.m[k] = v
	}
	c.mu.Unlock()
}

// saveFileAttempts bounds SaveFile's retry loop; saveFileBackoff is
// the base delay, doubled per attempt.
const (
	saveFileAttempts = 3
	saveFileBackoff  = 10 * time.Millisecond
)

// SaveFile atomically persists the cache to path: the sectioned format
// is written to a temp file in the destination directory, fsynced,
// closed, renamed over path, and the directory fsynced — so a reader
// (or a crash) at any instant sees either the complete old file or the
// complete new one, never a partial write. Transient errors are
// retried with bounded backoff.
func (c *Cache) SaveFile(path string, withStreams bool) error {
	return c.SaveFileFS(faultio.OS{}, path, withStreams)
}

// SaveFileFS is SaveFile over an injectable filesystem — the seam the
// crash-recovery tests drive torn writes, ENOSPC and crash-points
// through.
func (c *Cache) SaveFileFS(fs faultio.FS, path string, withStreams bool) error {
	var lastErr error
	for attempt := 0; attempt < saveFileAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(saveFileBackoff << (attempt - 1))
		}
		if lastErr = c.saveFileOnce(fs, path, withStreams); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("explore: saving simulation cache: %w", lastErr)
}

// saveFileOnce is one atomic write attempt. On any failure the temp
// file is removed and the destination is untouched.
func (c *Cache) saveFileOnce(fs faultio.FS, path string, withStreams bool) error {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := f.Name()
	bw := bufio.NewWriterSize(f, 1<<20)
	err = c.save(bw, withStreams)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(name, path)
	}
	if err != nil {
		_ = fs.Remove(name)
		return err
	}
	_ = fs.SyncDir(dir)
	return nil
}
