// Package distrib distributes an exploration campaign across
// processes: a coordinator owns the deterministic job space and hands
// out leased shards of combinations over a length-prefixed, CRC-framed
// TCP protocol; workers resolve the shards through their own engines
// and stream back results plus content-addressed cache entries.
//
// The design premise is the same one that makes single-process
// campaigns crash-safe (PR 8): the job space is deterministic and
// every settled job is durable in the cache under an identity key. The
// distributed layer therefore needs no consensus and no durable queue
// — leases are soft state. A worker that dies mid-shard simply lets
// its lease expire and the shard is re-handed to someone else; a
// result that arrives twice settles the same identity with the same
// bytes (first-settled wins and the duplicate merges as a no-op); a
// coordinator that dies restarts from its checkpointed cache, settles
// everything the dead campaign already proved in a warm pre-pass, and
// leases only the remainder. Faults — torn frames, dead peers, hung
// connections — surface as connection errors on one side and lease
// expiry on the other, and both sides recover independently.
package distrib

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/explore"
	"repro/internal/pareto"
)

// ProtoVersion gates hello/welcome: both sides must speak the same
// frame and message vocabulary. Version 2 added the authenticated
// hello (shared token) and the verification/quarantine admission
// rules.
const ProtoVersion = 2

// crcTable is the Castagnoli (CRC32C) polynomial table — the same
// checksum the sectioned cache format uses, for the same reason: a
// torn or corrupted frame must be detected, never half-applied.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the framed message header size: id, payload
// length, and the CRC32C that guards them.
const frameHeaderLen = 1 + 8 + 4

// maxFrameBytes bounds a frame a peer will accept. Shard results with
// compositional deltas are the largest messages. Anyone can compute a
// header CRC, so a declared length is trusted only this far, and the
// reader buffers a payload as its bytes arrive rather than allocating
// the declared length up front.
const maxFrameBytes = 1 << 31

// initialFrameBuffer is the payload buffer a frame read starts with;
// it grows from there only as payload bytes arrive.
const initialFrameBuffer = 64 << 10

// maxHelloBytes bounds the first frame of a connection. Until the
// hello is checked (protocol, campaign, token), the peer is untrusted
// and must not be able to make the coordinator allocate gigabytes; a
// legitimate hello is a few hundred bytes.
const maxHelloBytes = 1 << 16

// Message ids. The protocol is strict request/response per worker
// connection: the worker speaks first (hello), then alternates
// requests (leaseReq, results) with coordinator responses (welcome,
// lease, wait, ack, done, reject).
const (
	msgHello    byte = 1 // worker → coordinator: join a campaign
	msgWelcome  byte = 2 // coordinator → worker: admitted
	msgReject   byte = 3 // coordinator → worker: permanent refusal
	msgLeaseReq byte = 4 // worker → coordinator: give me a shard
	msgLease    byte = 5 // coordinator → worker: a leased shard
	msgWait     byte = 6 // coordinator → worker: nothing leasable now
	msgDone     byte = 7 // coordinator → worker: campaign complete
	msgResults  byte = 8 // worker → coordinator: shard outcomes + delta
	msgAck      byte = 9 // coordinator → worker: results merged
)

// msgName renders a message id for errors.
func msgName(id byte) string {
	switch id {
	case msgHello:
		return "hello"
	case msgWelcome:
		return "welcome"
	case msgReject:
		return "reject"
	case msgLeaseReq:
		return "leasereq"
	case msgLease:
		return "lease"
	case msgWait:
		return "wait"
	case msgDone:
		return "done"
	case msgResults:
		return "results"
	case msgAck:
		return "ack"
	default:
		return fmt.Sprintf("msg(%d)", id)
	}
}

// hello is the worker's opening message. Campaign must equal the
// coordinator engine's CampaignID — the proof both engines resolve the
// identical deterministic job space.
type hello struct {
	Worker   string
	Proto    int
	Campaign string
	// Token authenticates the worker when the coordinator requires a
	// shared secret (Options.Token). Compared in constant time and
	// never logged. Empty when the deployment runs unauthenticated
	// (localhost, tests).
	Token string
}

// welcome admits a worker and seeds its front.
type welcome struct {
	Campaign string
	Front    []pareto.Point
}

// reject permanently refuses a worker (campaign mismatch, protocol
// mismatch, failed campaign). Workers must not retry after a reject.
type reject struct {
	Reason string
}

// leaseReq asks for the next shard.
type leaseReq struct {
	Worker string
}

// lease grants a shard of jobs until the deadline. Front is the
// coordinator's current exact survivor front — the worker seeds its
// shard guard with it so remote bound pruning stays effective.
type lease struct {
	ID         uint64
	Step       int
	Jobs       []explore.JobSpec
	TTLMillis  int64
	Front      []pareto.Point
	Reassigned bool
}

// wait tells the worker nothing is leasable right now (every pending
// job is on some other worker's lease): re-request after the delay.
type wait struct {
	Millis int64
}

// done tells the worker the campaign is complete.
type done struct{}

// resultsMsg returns a shard's outcomes plus the compositional cache
// entries the worker captured since its last report.
type resultsMsg struct {
	Worker   string
	LeaseID  uint64
	Outcomes []explore.JobOutcome
	Delta    *explore.CacheDelta
}

// ack confirms a results merge and refreshes the worker's front.
type ack struct {
	Front []pareto.Point
}

// writeMsg frames and writes one gob-encoded message: header (id,
// length, header CRC), payload, payload CRC — the cache file's section
// framing, applied per message.
func writeMsg(w io.Writer, id byte, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("distrib: encoding %s: %w", msgName(id), err)
	}
	payload := buf.Bytes()
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

// readFrame reads and verifies one frame, returning its id and
// payload. Any integrity failure — short read, header CRC, payload
// CRC — is an error; the connection is unrecoverable past it (framing
// has lost sync) and callers drop it, which is exactly the recovery
// model: the sender's lease expires and the shard is re-leased.
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	return readFrameN(r, maxFrameBytes)
}

// readFrameN is readFrame with a caller-chosen payload bound — the
// coordinator caps the first, pre-authentication frame of a connection
// at maxHelloBytes.
func readFrameN(r *bufio.Reader, maxLen int64) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(hdr[:9], crcTable) != binary.LittleEndian.Uint32(hdr[9:13]) {
		return 0, nil, fmt.Errorf("distrib: frame header CRC mismatch")
	}
	id := hdr[0]
	ln := int64(binary.LittleEndian.Uint64(hdr[1:9]))
	if ln < 0 || ln > maxLen {
		return 0, nil, fmt.Errorf("distrib: frame length %d out of range", ln)
	}
	// The declared length is only an upper bound until the bytes
	// arrive: the buffer grows with what is actually received, so a
	// forged header cannot make the reader allocate maxLen up front.
	var buf bytes.Buffer
	buf.Grow(int(min(ln, initialFrameBuffer)))
	if _, err := io.CopyN(&buf, r, ln); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	payload := buf.Bytes()
	var tr [4]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tr[:]) {
		return 0, nil, fmt.Errorf("distrib: %s payload CRC mismatch", msgName(id))
	}
	return id, payload, nil
}

// decodeMsg gob-decodes a frame payload into v.
func decodeMsg(id byte, payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("distrib: decoding %s: %w", msgName(id), err)
	}
	return nil
}
