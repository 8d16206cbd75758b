package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
)

// Snapshots are single files with a 4-byte magic, a binary payload, and a
// CRC-32C trailer over everything before it. They are written to a temp
// file, fsynced, atomically renamed into place, and the directory is
// fsynced — a reader either sees the complete old file or the complete new
// one, and the trailer catches torn or bit-rotted content.

var (
	stateMagicV1 = [4]byte{'G', 'F', 'S', '1'} // user table + fingerprints
	epochMagicV1 = [4]byte{'G', 'F', 'E', '1'} // latest graph epoch
	stateMagic   = [4]byte{'G', 'F', 'S', '2'} // v1 + tombstone bitmap
	epochMagic   = [4]byte{'G', 'F', 'E', '2'} // v1 + tombstone bitmap
)

// maxSnapshotNeighbors bounds one serialized neighborhood so a corrupt
// count cannot drive a huge allocation.
const maxSnapshotNeighbors = 1 << 20

// State is the durable image of the service's mutable state: the dense
// user table, the fingerprint per user, the tombstone per user, and the
// mutation counter the set was captured at. Deleted users keep their slot
// (IDs are positional and append-only); nil Deleted means none.
type State struct {
	Users   []string
	FPS     []core.Fingerprint
	Deleted []bool
	MutSeq  uint64
}

// EpochData is the durable image of one published graph epoch — everything
// the service needs to re-serve the epoch after a restart. It embeds its
// own user table: the epoch pins the user set it was built from, which may
// be a strict prefix of the recovered state's.
type EpochData struct {
	Seq       int64
	K         int
	Algorithm string
	BuiltAt   time.Time
	Duration  time.Duration
	Stats     knn.Stats
	MutSeq    uint64
	Users     []string
	Graph     *knn.Graph
	// Dead marks tombstoned nodes of an online-maintained epoch; nil means
	// none. Always the same length as Users when non-nil.
	Dead []bool
}

// sealSnapshot prepends magic and appends the CRC-32C trailer.
func sealSnapshot(magic [4]byte, payload []byte) []byte {
	out := make([]byte, 0, 4+len(payload)+4)
	out = append(out, magic[:]...)
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(out, crcTable))
	return append(out, crc[:]...)
}

// openSnapshot verifies magic and trailer and returns the payload.
func openSnapshot(magic [4]byte, data []byte) ([]byte, error) {
	payload, _, err := openSnapshotAny(data, magic)
	return payload, err
}

// openSnapshotAny accepts any of the given magics (format versions) and
// returns the payload plus the magic that matched.
func openSnapshotAny(data []byte, magics ...[4]byte) ([]byte, [4]byte, error) {
	if len(data) < 8 {
		return nil, [4]byte{}, fmt.Errorf("durable: snapshot is %d bytes, too short", len(data))
	}
	var matched [4]byte
	found := false
	for _, m := range magics {
		if bytes.Equal(data[:4], m[:]) {
			matched, found = m, true
			break
		}
	}
	if !found {
		return nil, [4]byte{}, fmt.Errorf("durable: bad snapshot magic %q (want %q)", data[:4], magics[len(magics)-1][:])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, [4]byte{}, fmt.Errorf("durable: snapshot CRC mismatch (want %08x, got %08x)", want, got)
	}
	return body[4:], matched, nil
}

// writeBitmap appends a length-prefixed, bit-packed bool slice.
func writeBitmap(buf *bytes.Buffer, bits []bool) {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(bits)))
	buf.Write(u32[:])
	packed := make([]byte, (len(bits)+7)/8)
	for i, set := range bits {
		if set {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	buf.Write(packed)
}

// readBitmap reads a bitmap that must describe exactly want entries.
func readBitmap(r *bytes.Reader, want int) ([]bool, error) {
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("durable: reading bitmap length: %w", err)
	}
	n := binary.LittleEndian.Uint32(u32[:])
	if int64(n) != int64(want) {
		return nil, fmt.Errorf("durable: bitmap describes %d entries, want %d", n, want)
	}
	packed := make([]byte, (want+7)/8)
	if _, err := io.ReadFull(r, packed); err != nil {
		return nil, fmt.Errorf("durable: reading bitmap: %w", err)
	}
	bits := make([]bool, want)
	for i := range bits {
		bits[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return bits, nil
}

// encodeState serializes a state snapshot.
func encodeState(st State) ([]byte, error) {
	if len(st.Users) != len(st.FPS) {
		return nil, fmt.Errorf("durable: %d users but %d fingerprints", len(st.Users), len(st.FPS))
	}
	deleted := st.Deleted
	if deleted == nil {
		deleted = make([]bool, len(st.Users))
	}
	if len(deleted) != len(st.Users) {
		return nil, fmt.Errorf("durable: %d users but %d tombstone flags", len(st.Users), len(deleted))
	}
	var buf bytes.Buffer
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], st.MutSeq)
	buf.Write(u64[:])
	if err := core.WriteUserTable(&buf, st.Users); err != nil {
		return nil, err
	}
	if err := core.WriteFingerprintSet(&buf, st.FPS); err != nil {
		return nil, err
	}
	writeBitmap(&buf, deleted)
	return sealSnapshot(stateMagic, buf.Bytes()), nil
}

// decodeState parses a state snapshot, verifying checksum and structure.
func decodeState(data []byte) (State, error) {
	payload, magic, err := openSnapshotAny(data, stateMagicV1, stateMagic)
	if err != nil {
		return State{}, err
	}
	r := bytes.NewReader(payload)
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return State{}, fmt.Errorf("durable: reading state mutSeq: %w", err)
	}
	st := State{MutSeq: binary.LittleEndian.Uint64(u64[:])}
	if st.Users, err = core.ReadUserTable(r); err != nil {
		return State{}, err
	}
	if st.FPS, err = core.ReadFingerprintSet(r); err != nil {
		return State{}, err
	}
	if len(st.Users) != len(st.FPS) {
		return State{}, fmt.Errorf("durable: state has %d users but %d fingerprints", len(st.Users), len(st.FPS))
	}
	if magic == stateMagic {
		if st.Deleted, err = readBitmap(r, len(st.Users)); err != nil {
			return State{}, err
		}
	} else {
		st.Deleted = make([]bool, len(st.Users)) // v1 snapshots predate deletes
	}
	if r.Len() != 0 {
		return State{}, fmt.Errorf("durable: %d trailing bytes in state snapshot", r.Len())
	}
	return st, nil
}

// encodeEpoch serializes an epoch snapshot.
func encodeEpoch(ep EpochData) ([]byte, error) {
	if ep.Graph == nil {
		return nil, fmt.Errorf("durable: epoch has no graph")
	}
	if ep.Graph.NumUsers() != len(ep.Users) {
		return nil, fmt.Errorf("durable: epoch graph has %d nodes but %d users",
			ep.Graph.NumUsers(), len(ep.Users))
	}
	dead := ep.Dead
	if dead == nil {
		dead = make([]bool, len(ep.Users))
	}
	if len(dead) != len(ep.Users) {
		return nil, fmt.Errorf("durable: epoch has %d users but %d tombstone flags", len(ep.Users), len(dead))
	}
	var buf bytes.Buffer
	w := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	w(uint64(ep.Seq))
	w(uint64(ep.K))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(ep.Algorithm)))
	buf.Write(u32[:])
	buf.WriteString(ep.Algorithm)
	w(uint64(ep.BuiltAt.UnixNano()))
	w(uint64(ep.Duration))
	w(uint64(ep.Stats.Comparisons))
	w(uint64(ep.Stats.Iterations))
	w(uint64(ep.Stats.Updates))
	w(ep.MutSeq)
	if err := core.WriteUserTable(&buf, ep.Users); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(ep.Graph.Neighbors)))
	buf.Write(u32[:])
	for _, nbrs := range ep.Graph.Neighbors {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(nbrs)))
		buf.Write(u32[:])
		for _, nb := range nbrs {
			binary.LittleEndian.PutUint32(u32[:], uint32(nb.ID))
			buf.Write(u32[:])
			w(math.Float64bits(nb.Sim))
		}
	}
	writeBitmap(&buf, dead)
	return sealSnapshot(epochMagic, buf.Bytes()), nil
}

// decodeEpoch parses an epoch snapshot, verifying checksum, structure, and
// that every neighbor index is a valid node — a recovered epoch must be
// servable without bounds panics.
func decodeEpoch(data []byte) (EpochData, error) {
	payload, magic, err := openSnapshotAny(data, epochMagicV1, epochMagic)
	if err != nil {
		return EpochData{}, err
	}
	r := bytes.NewReader(payload)
	var b8 [8]byte
	rd := func() (uint64, error) {
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return 0, fmt.Errorf("durable: short epoch snapshot: %w", err)
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}
	var ep EpochData
	var v uint64
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	ep.Seq = int64(v)
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	if v > 1<<30 {
		return EpochData{}, fmt.Errorf("durable: implausible epoch k %d", v)
	}
	ep.K = int(v)
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return EpochData{}, fmt.Errorf("durable: reading algorithm length: %w", err)
	}
	algoLen := binary.LittleEndian.Uint32(u32[:])
	if algoLen > 256 {
		return EpochData{}, fmt.Errorf("durable: implausible algorithm length %d", algoLen)
	}
	algo := make([]byte, algoLen)
	if _, err := io.ReadFull(r, algo); err != nil {
		return EpochData{}, fmt.Errorf("durable: reading algorithm: %w", err)
	}
	ep.Algorithm = string(algo)
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	ep.BuiltAt = time.Unix(0, int64(v))
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	ep.Duration = time.Duration(v)
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	ep.Stats.Comparisons = int64(v)
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	ep.Stats.Iterations = int(v)
	if v, err = rd(); err != nil {
		return EpochData{}, err
	}
	ep.Stats.Updates = int64(v)
	if ep.MutSeq, err = rd(); err != nil {
		return EpochData{}, err
	}
	if ep.Users, err = core.ReadUserTable(r); err != nil {
		return EpochData{}, err
	}
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return EpochData{}, fmt.Errorf("durable: reading node count: %w", err)
	}
	n := binary.LittleEndian.Uint32(u32[:])
	if int(n) != len(ep.Users) {
		return EpochData{}, fmt.Errorf("durable: epoch graph has %d nodes but %d users", n, len(ep.Users))
	}
	// The adjacency is nearly all of the payload, so it is decoded straight
	// from the slice rather than a field at a time through the reader. A
	// neighborhood's size is checked against the bytes left before any of
	// it is read, so only its count can run short.
	b := payload[len(payload)-r.Len():]
	g := &knn.Graph{K: ep.K, Neighbors: make([][]knn.Neighbor, n)}
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			err := io.ErrUnexpectedEOF // what io.ReadFull reports
			if len(b) == 0 {
				err = io.EOF
			}
			return EpochData{}, fmt.Errorf("durable: reading neighborhood %d: %w", i, err)
		}
		m := binary.LittleEndian.Uint32(b)
		if b = b[4:]; m > maxSnapshotNeighbors || int64(m)*12 > int64(len(b)) {
			return EpochData{}, fmt.Errorf("durable: implausible neighborhood size %d at node %d", m, i)
		}
		nbrs := make([]knn.Neighbor, m)
		for j := range nbrs {
			id := binary.LittleEndian.Uint32(b)
			if id >= n {
				return EpochData{}, fmt.Errorf("durable: node %d neighbor index %d out of range [0,%d)", i, id, n)
			}
			nbrs[j] = knn.Neighbor{ID: int32(id), Sim: math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))}
			b = b[12:]
		}
		g.Neighbors[i] = nbrs
	}
	r.Reset(b)
	if magic == epochMagic {
		if ep.Dead, err = readBitmap(r, len(ep.Users)); err != nil {
			return EpochData{}, err
		}
	} else {
		ep.Dead = make([]bool, len(ep.Users)) // v1 epochs predate tombstones
	}
	if r.Len() != 0 {
		return EpochData{}, fmt.Errorf("durable: %d trailing bytes in epoch snapshot", r.Len())
	}
	ep.Graph = g
	return ep, nil
}

// writeFileAtomic writes data as dir/name via temp file + fsync + rename +
// directory fsync: after it returns nil the file is durable and readers
// never observe a partial write.
func writeFileAtomic(fsys FS, dir, name string, data []byte) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("durable: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("durable: fsyncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: renaming %s into place: %w", tmp, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: fsyncing %s: %w", dir, err)
	}
	return nil
}
