package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
)

// The WAL is a flat stream of self-checking records — no file header, so a
// segment truncated at any byte is still a valid (shorter) WAL:
//
//	uint32 payloadLen | uint32 crc32c(payload) | payload
//
// payload, by leading kind byte:
//
//	recPut        | uint64 mutSeq | uint32 idLen | id | fingerprint (core codec)
//	recDelete     | uint64 mutSeq | uint32 idLen | id
//	recGraphDelta | uint64 mutSeq | uint8 op | uint32 node | uint32 adjCount |
//	                adjCount × (uint32 node | uint32 nbrCount |
//	                            nbrCount × (uint32 id | uint64 simBits))
//	recMigration  | uint64 mutSeq | uint8 phase | uint64 ringEpoch |
//	                uint32 users | uint32 peerLen | peer
//
// Every field is coded by codec.go: an id or peer is one of its
// length-prefixed strings, a nbrCount list one of its neighbour lists, and
// decode→encode is byte-exact. CRC-32C (Castagnoli) is hardware-accelerated
// on amd64/arm64. mutSeq is the server's mutation counter value the record
// establishes; replay applies records in order and skips any whose mutSeq
// is already covered by the snapshot being replayed over. A graph-delta
// record rides behind the put/delete that caused it (same mutSeq): it
// carries the full post-mutation KNN adjacency of every node the mutation
// touched, so recovery replays it onto the persisted epoch graph verbatim
// — a warm graph instead of "replay + rebuild". Structural bounds are
// enforced at decode; semantic bounds (node indices vs. the epoch graph)
// at apply time.

// crcTable is the Castagnoli polynomial table shared by WAL records and
// snapshot trailers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecordKind discriminates WAL record payloads. The zero value is
// normalized to KindPut on encode so pre-existing Record literals keep
// meaning what they meant.
type RecordKind uint8

const (
	KindPut        RecordKind = recPut
	KindDelete     RecordKind = recDelete
	KindGraphDelta RecordKind = recGraphDelta
	KindMigration  RecordKind = recMigration
)

const (
	recPut        = 1 // fingerprint put (insert or overwrite)
	recDelete     = 2 // user tombstone
	recGraphDelta = 3 // post-mutation KNN adjacencies of the touched nodes
	recMigration  = 4 // shard-migration handoff journal mark

	walHeaderBytes = 8
	// maxWALPayload bounds one record so a corrupt length prefix cannot
	// drive a multi-gigabyte allocation during replay. 64 MiB is orders of
	// magnitude above any real record (id ≤ core.MaxUserIDBytes + one
	// fingerprint).
	maxWALPayload = 1 << 26
	// maxDeltaTouched bounds the node count of one graph delta: a real
	// mutation touches at most the degree cap plus its repairs, far under
	// this.
	maxDeltaTouched = 1 << 16
	// maxNodes bounds a graph-delta node id: it must fit an int32.
	maxNodes = math.MaxInt32 + 1
)

// DeltaOp is the mutation class a graph delta records.
type DeltaOp uint8

const (
	DeltaInsert    DeltaOp = 1
	DeltaOverwrite DeltaOp = 2
	DeltaDelete    DeltaOp = 3
)

// GraphDelta is the graph half of one mutation: the full post-mutation
// KNN adjacency of every touched node. Replay assigns the adjacencies
// verbatim (knn.ApplyTouched), so a warm-recovered graph is bit-identical
// to the live one the delta was captured from.
type GraphDelta struct {
	Op   DeltaOp
	Node int32 // the mutated node
	Adj  []knn.TouchedNode
}

// MigPhase is the handoff step a migration mark journals.
type MigPhase uint8

const (
	// MigImportBegin is journaled by the gaining shard before it pulls the
	// first user of a ring-change import. A begin without a matching done
	// after recovery means the import was interrupted and must be resumed
	// (re-importing is idempotent: puts are keyed by user id).
	MigImportBegin MigPhase = 1
	// MigImportDone is journaled by the gaining shard after every moved
	// user has been applied through the WAL.
	MigImportDone MigPhase = 2
	// MigRetireDone is journaled by the losing shard after tombstoning the
	// users it handed off (the tombstones themselves are ordinary delete
	// records ahead of this mark).
	MigRetireDone MigPhase = 3
)

// MigrationMark journals one step of a shard-to-shard data handoff so a
// crash mid-migration is visible at recovery. Marks do not mutate user
// state; they ride the WAL for ordering and durability.
type MigrationMark struct {
	Phase MigPhase
	Epoch uint64 // ring epoch the handoff belongs to
	Peer  string // other side of the handoff: from-shard on import, to-shard on retire
	Users uint32 // users transferred/retired (0 on begin)
}

// Record is one durable mutation. KindPut carries ID+FP, KindDelete
// carries ID, KindGraphDelta carries Delta, KindMigration carries Mig;
// MutSeq is the mutation counter value the record establishes (for
// migration marks: the counter value at journal time, unchanged).
type Record struct {
	Kind   RecordKind
	MutSeq uint64
	ID     string
	FP     core.Fingerprint
	Delta  *GraphDelta
	Mig    *MigrationMark
}

// AppendRecord serializes rec onto buf and returns the extended slice. A
// put or delete whose id is over core.MaxUserIDBytes is refused: no
// snapshot could carry the user it establishes.
func AppendRecord(buf []byte, rec Record) ([]byte, error) {
	kind := rec.Kind
	if kind == 0 {
		kind = KindPut
	}
	start := len(buf)
	b := slices.Grow(buf, walHeaderBytes+payloadBytes(rec))
	b = append(b, make([]byte, walHeaderBytes)...) // length and CRC, filled in below
	b = le.AppendUint64(append(b, byte(kind)), rec.MutSeq)
	switch kind {
	case KindPut, KindDelete:
		if len(rec.ID) > core.MaxUserIDBytes {
			return buf, fmt.Errorf("durable: user id is %d bytes, max %d", len(rec.ID), core.MaxUserIDBytes)
		}
		b = appendStr(b, rec.ID)
		if kind == KindPut {
			var err error
			if b, err = core.AppendFingerprint(b, rec.FP); err != nil {
				return buf, fmt.Errorf("durable: encoding WAL fingerprint: %w", err)
			}
		}
	case KindGraphDelta:
		d := rec.Delta
		if d == nil {
			return buf, fmt.Errorf("durable: graph-delta record has no delta")
		}
		if d.Op < DeltaInsert || d.Op > DeltaDelete {
			return buf, fmt.Errorf("durable: unknown graph-delta op %d", d.Op)
		}
		if d.Node < 0 {
			return buf, fmt.Errorf("durable: graph delta for negative node %d", d.Node)
		}
		if len(d.Adj) > maxDeltaTouched {
			return buf, fmt.Errorf("durable: graph delta touches %d nodes, max %d", len(d.Adj), maxDeltaTouched)
		}
		b = le.AppendUint32(le.AppendUint32(append(b, byte(d.Op)), uint32(d.Node)), uint32(len(d.Adj)))
		for _, tn := range d.Adj {
			if tn.ID < 0 {
				return buf, fmt.Errorf("durable: graph delta touches negative node %d", tn.ID)
			}
			b = appendNeighbors(le.AppendUint32(b, uint32(tn.ID)), tn.Neighbors)
		}
	case KindMigration:
		m := rec.Mig
		if m == nil {
			return buf, fmt.Errorf("durable: migration record has no mark")
		}
		if m.Phase < MigImportBegin || m.Phase > MigRetireDone {
			return buf, fmt.Errorf("durable: unknown migration phase %d", m.Phase)
		}
		b = le.AppendUint32(le.AppendUint64(append(b, byte(m.Phase)), m.Epoch), m.Users)
		b = appendStr(b, m.Peer)
	default:
		return buf, fmt.Errorf("durable: unknown WAL record kind %d", kind)
	}
	payload := b[start+walHeaderBytes:]
	if len(payload) > maxWALPayload {
		return buf, fmt.Errorf("durable: WAL record payload is %d bytes, max %d", len(payload), maxWALPayload)
	}
	le.PutUint32(b[start:], uint32(len(payload)))
	le.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// payloadBytes bounds rec's payload size from above, for presizing.
func payloadBytes(rec Record) int {
	n := 1 + 8 + 4 + len(rec.ID) + fingerprintBytes(rec.FP)
	if d := rec.Delta; d != nil {
		n += 1 + 4 + 4
		for _, tn := range d.Adj {
			n += 4 + 4 + neighborBytes*len(tn.Neighbors)
		}
	}
	if m := rec.Mig; m != nil {
		n += 1 + 8 + 4 + 4 + len(m.Peer)
	}
	return n
}

// decodeRecordPayload parses one CRC-verified payload. The payload must be
// consumed exactly: trailing bytes mean a corrupt record even if the prefix
// parses. Ids are bounded only by the payload, so a WAL written before
// AppendRecord enforced core.MaxUserIDBytes still replays byte for byte.
func decodeRecordPayload(payload []byte) (Record, error) {
	d := dec{b: payload}
	rec := Record{Kind: RecordKind(d.u8()), MutSeq: d.u64()}
	switch rec.Kind {
	case KindPut:
		rec.ID, rec.FP = d.str(maxWALPayload), d.fingerprint()
	case KindDelete:
		rec.ID = d.str(maxWALPayload)
	case KindGraphDelta:
		rec.Delta = decodeGraphDelta(&d)
	case KindMigration:
		m := &MigrationMark{Phase: MigPhase(d.u8())}
		if d.err == nil && (m.Phase < MigImportBegin || m.Phase > MigRetireDone) {
			d.fail("unknown migration phase %d", m.Phase)
		}
		m.Epoch, m.Users, m.Peer = d.u64(), d.u32(), d.str(maxWALPayload)
		rec.Mig = m
	default:
		d.fail("unknown record kind %d", rec.Kind)
	}
	if err := d.end("WAL record"); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// decodeGraphDelta parses the graph-delta payload body. Node ids must fit
// an int32; each touched node's list goes through the same neighbour codec
// as the epoch's adjacency.
func decodeGraphDelta(d *dec) *GraphDelta {
	op := DeltaOp(d.u8())
	if d.err == nil && (op < DeltaInsert || op > DeltaDelete) {
		d.fail("unknown graph-delta op %d", op)
	}
	g := &GraphDelta{Op: op, Node: d.index(maxNodes)}
	g.Adj = make([]knn.TouchedNode, d.count(maxDeltaTouched, 8))
	for i := range g.Adj {
		if g.Adj[i] = (knn.TouchedNode{ID: d.index(maxNodes), Neighbors: d.neighbors(maxNodes)}); d.err != nil {
			return nil
		}
	}
	return g
}

// ScanWAL parses a WAL byte stream into the longest prefix of valid
// records. It returns the records, the byte length of that prefix, and the
// error that terminated the scan (nil when the whole stream parsed). A
// record is accepted only if its length prefix is plausible, its CRC-32C
// matches, and its payload decodes exactly; the first failure ends the scan
// — everything after it is a torn tail of len(data)-goodLen bytes.
//
// ScanWAL never panics and never allocates proportionally to a corrupt
// length prefix.
func ScanWAL(data []byte) (recs []Record, goodLen int, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < walHeaderBytes {
			return recs, off, fmt.Errorf("durable: torn record header (%d bytes)", len(rest))
		}
		payloadLen := le.Uint32(rest[0:4])
		if payloadLen > maxWALPayload {
			return recs, off, fmt.Errorf("durable: implausible record length %d", payloadLen)
		}
		if int(payloadLen) > len(rest)-walHeaderBytes {
			return recs, off, fmt.Errorf("durable: torn record payload (%d of %d bytes)",
				len(rest)-walHeaderBytes, payloadLen)
		}
		wantCRC := le.Uint32(rest[4:8])
		payload := rest[walHeaderBytes : walHeaderBytes+int(payloadLen)]
		if got := crc32.Checksum(payload, crcTable); got != wantCRC {
			return recs, off, fmt.Errorf("durable: record CRC mismatch (want %08x, got %08x)", wantCRC, got)
		}
		rec, derr := decodeRecordPayload(payload)
		if derr != nil {
			return recs, off, derr
		}
		recs = append(recs, rec)
		off += walHeaderBytes + int(payloadLen)
	}
	return recs, off, nil
}

// wal is the open, append-only active segment. Not safe for concurrent use;
// the Store serializes access.
type wal struct {
	fsys  FS
	path  string
	file  File
	fsync FsyncPolicy
	bytes int64
	recs  int64
}

// openWAL opens (or creates) the segment at path for appending.
func openWAL(fsys FS, path string, fsync FsyncPolicy) (*wal, error) {
	size, err := fsys.Size(path)
	if err != nil {
		if !notExist(err) {
			return nil, fmt.Errorf("durable: sizing WAL %s: %w", path, err)
		}
		size = 0
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("durable: opening WAL %s: %w", path, err)
	}
	return &wal{fsys: fsys, path: path, file: f, fsync: fsync, bytes: size}, nil
}

// append writes one encoded record and, under FsyncAlways, fsyncs it. On
// any error the segment must be considered torn: the caller flips to
// degraded mode. Reports whether an fsync was issued.
func (w *wal) append(buf []byte) (synced bool, err error) {
	if _, err := w.file.Write(buf); err != nil {
		return false, fmt.Errorf("durable: appending WAL record: %w", err)
	}
	w.bytes += int64(len(buf))
	w.recs++
	if w.fsync == FsyncAlways {
		if err := w.file.Sync(); err != nil {
			return false, fmt.Errorf("durable: fsyncing WAL: %w", err)
		}
		return true, nil
	}
	return false, nil
}

// seal fsyncs and closes the segment; the segment is complete and will
// never be written again.
func (w *wal) seal() error {
	err := w.file.Sync()
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: sealing WAL %s: %w", w.path, err)
	}
	return nil
}

// FsyncPolicy controls when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every appended record: an acked PUT survives
	// a power cut. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncNone never fsyncs on the append path (segments are still synced
	// when sealed): an acked PUT survives a process crash but the tail may
	// be lost to a power cut. Recovery handles the torn tail either way.
	FsyncNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag values "always" and "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, errors.New(`durable: fsync policy must be "always" or "none"`)
	}
}
