package astream

// RecordSeg exposes the segment terminator a lane's serialized form
// carries, so external tests can encode a lane event by event as a
// Recorder-based capture writes it.
func RecordSeg(r *Recorder, maxDelta uint64, endDelta int64) { r.recordSeg(maxDelta, endDelta) }

// ErrStreamSeg is Replay's error for a whole-run stream holding a
// segment terminator.
var ErrStreamSeg = errStreamSeg

// DecodeCounts decodes chunks one access at a time and returns the
// accesses, segment terminators and words the events hold, with the
// error of the first refused event: the counts a test must declare to
// read arbitrary bytes as a lane. After a refused event, accesses is the
// most the bytes can hold and words counts the accesses before it.
func DecodeCounts(chunks [][]byte) (accesses, segments, words uint64, err error) {
	room := 1
	for _, c := range chunks {
		room += len(c) / 2 // an access takes at least two bytes
	}
	addr := make([]uint32, room)
	d := decoder{chunks: chunks, size: make([]uint32, room), write: make([]uint64, room/64+1)}
	for {
		n := d.n
		d.addr = addr[:n+1]
		if err := d.decode(); err != nil {
			return uint64(room), segments, words, err
		}
		words += d.readW + d.writeW
		switch {
		case d.seg:
			segments++
		case d.n == n:
			return uint64(n), segments, words, nil
		}
	}
}
