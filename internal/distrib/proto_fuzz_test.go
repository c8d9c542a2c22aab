package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/pareto"
)

// fuzzFrameSeeds encodes one frame of every message type, the results
// frame carrying a real compositional delta (lanes and a schedule).
func fuzzFrameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	a, err := netapps.ByName("Route")
	if err != nil {
		tb.Fatal(err)
	}
	eng := explore.NewEngine(a, explore.Options{TracePackets: 4, Arenas: true})
	cfg := explore.Configs(a)[0]
	r, err := eng.Simulate(context.Background(), cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	front := []pareto.Point{r.Point(0)}
	msgs := []struct {
		id byte
		v  any
	}{
		{msgHello, hello{Worker: "w1", Proto: ProtoVersion, Campaign: eng.CampaignID(), Token: "t"}},
		{msgWelcome, welcome{Campaign: eng.CampaignID(), Front: front}},
		{msgReject, reject{Reason: "campaign mismatch"}},
		{msgLeaseReq, leaseReq{Worker: "w1"}},
		{msgLease, lease{ID: 3, Step: 1, Jobs: []explore.JobSpec{{Index: 7, Cfg: cfg, Assign: r.Assign, Guarded: true}}, TTLMillis: 2000, Front: front}},
		{msgWait, wait{Millis: 50}},
		{msgDone, done{}},
		{msgResults, resultsMsg{Worker: "w1", LeaseID: 3, Outcomes: []explore.JobOutcome{{Index: 7, Result: r}},
			Delta: eng.Cache().ExportDelta(explore.NewDeltaCursor())}},
		{msgAck, ack{Front: front}},
	}
	var out [][]byte
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := writeMsg(&buf, m.id, m.v); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzReadFrame feeds arbitrary bytes through the frame reader and
// every frame it accepts through the message decoder into each message
// type. Whatever a peer sends, neither may panic.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range fuzzFrameSeeds(f) {
		f.Add(fr)
		f.Add(fr[:len(fr)/2])
		mut := append([]byte(nil), fr...)
		mut[len(mut)*2/3] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(frameHeader(msgResults, maxFrameBytes))

	f.Fuzz(func(t *testing.T, data []byte) {
		id, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		for _, v := range []any{
			&hello{}, &welcome{}, &reject{}, &leaseReq{}, &lease{},
			&wait{}, &done{}, &resultsMsg{}, &ack{},
		} {
			_ = decodeMsg(id, payload, v)
		}
	})
}

// frameHeader encodes a frame header with a valid header CRC that
// declares a payload of ln bytes.
func frameHeader(id byte, ln uint64) []byte {
	hdr := make([]byte, 9, frameHeaderLen)
	hdr[0] = id
	binary.LittleEndian.PutUint64(hdr[1:9], ln)
	return binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, crcTable))
}

// TestForgedFrameLengthAllocatesLittle pins that a frame's declared
// length is not trusted for allocation: a header declaring the largest
// admissible payload, followed by a few bytes, fails as a short read
// without allocating anything near the declared size.
func TestForgedFrameLengthAllocatesLittle(t *testing.T) {
	data := append(frameHeader(msgResults, maxFrameBytes), "only a few bytes"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame shorter than its declared length was accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("reading a forged %d-byte frame header allocated %d bytes", maxFrameBytes, n)
	}
}
