package astream

// RecordSeg exposes the segment terminator a lane's serialized form
// carries, so external tests can encode a lane event by event as a
// Recorder-based capture writes it.
func RecordSeg(r *Recorder, maxDelta uint64, endDelta int64) { r.recordSeg(maxDelta, endDelta) }
