package durable

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
)

// Snapshots are single files with a 4-byte magic, a binary payload, and a
// CRC-32C trailer over everything before it. They are written to a temp
// file, fsynced, atomically renamed into place, and the directory is
// fsynced — a reader either sees the complete old file or the complete new
// one, and the trailer catches torn or bit-rotted content. In codec.go's
// fields:
//
//	state: magic | uint64 mutSeq | users | fingerprints | bitmap | crc
//	epoch: magic | uint64 seq | uint64 k | str algorithm | uint64 builtAt,
//	       duration, comparisons, iterations, updates, mutSeq | users |
//	       uint32 n | n × neighbour list | bitmap | crc
//
// The v1 formats are the same without the tombstone bitmap.

var (
	stateMagicV1 = [4]byte{'G', 'F', 'S', '1'} // user table + fingerprints
	epochMagicV1 = [4]byte{'G', 'F', 'E', '1'} // latest graph epoch
	stateMagic   = [4]byte{'G', 'F', 'S', '2'} // v1 + tombstone bitmap
	epochMagic   = [4]byte{'G', 'F', 'E', '2'} // v1 + tombstone bitmap
)

// maxAlgorithmBytes bounds an epoch's builder name.
const maxAlgorithmBytes = 256

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

// seal appends the CRC-32C trailer over b, which starts with the magic.
func seal(b []byte) []byte {
	return le.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// openSnapshot checks a snapshot's magic, any of the given format
// versions, and its CRC trailer. It returns a reader over the payload and
// the magic that matched; a failure is left in the reader.
func openSnapshot(data []byte, magics ...[4]byte) (*dec, [4]byte) {
	d := &dec{}
	if len(data) < 8 {
		d.fail("%d bytes, too short", len(data))
		return d, [4]byte{}
	}
	i := slices.IndexFunc(magics, func(m [4]byte) bool { return bytes.Equal(data[:4], m[:]) })
	if i < 0 {
		d.fail("bad magic %q (want %q)", data[:4], magics[len(magics)-1][:])
		return d, [4]byte{}
	}
	body := data[:len(data)-4]
	if want, got := le.Uint32(data[len(body):]), crc32.Checksum(body, crcTable); got != want {
		d.fail("CRC mismatch (want %08x, got %08x)", want, got)
		return d, [4]byte{}
	}
	d.b = body[4:]
	return d, magics[i]
}

// EncodeState serializes a state snapshot, sealed with magic and CRC. It is
// also the migration stream: GET /migrate/export answers with one.
func EncodeState(st State) ([]byte, error) {
	n := len(st.Users)
	if len(st.FPS) != n {
		return nil, fmt.Errorf("durable: %d users but %d fingerprints", n, len(st.FPS))
	}
	if st.Deleted != nil && len(st.Deleted) != n {
		return nil, fmt.Errorf("durable: %d users but %d tombstone flags", n, len(st.Deleted))
	}
	size := 4 + 8 + usersBytes(st.Users) + 4 + 4 + (n+7)/8 + 4
	if n > 0 {
		size += n * fingerprintBytes(st.FPS[0])
	}
	b := append(make([]byte, 0, size), stateMagic[:]...)
	b, err := appendUsers(le.AppendUint64(b, st.MutSeq), st.Users)
	if err != nil {
		return nil, err
	}
	if b, err = appendFingerprints(b, st.FPS); err != nil {
		return nil, err
	}
	return seal(appendBitmap(b, n, st.Deleted)), nil
}

// DecodeState parses a state snapshot, verifying checksum and structure.
func DecodeState(data []byte) (State, error) {
	d, magic := openSnapshot(data, stateMagicV1, stateMagic)
	st := State{MutSeq: d.u64(), Users: d.users(), FPS: d.fingerprints()}
	if d.err == nil && len(st.FPS) != len(st.Users) {
		d.fail("%d users but %d fingerprints", len(st.Users), len(st.FPS))
	}
	if magic == stateMagic {
		st.Deleted = d.bitmap(len(st.Users))
	} else {
		st.Deleted = make([]bool, len(st.Users)) // v1 snapshots predate deletes
	}
	if err := d.end("state snapshot"); err != nil {
		return State{}, err
	}
	return st, nil
}

// encodeEpoch serializes an epoch snapshot.
func encodeEpoch(ep EpochData) ([]byte, error) {
	if ep.Graph == nil {
		return nil, fmt.Errorf("durable: epoch has no graph")
	}
	n := len(ep.Users)
	if ep.Graph.NumUsers() != n {
		return nil, fmt.Errorf("durable: epoch graph has %d nodes but %d users", ep.Graph.NumUsers(), n)
	}
	if ep.Dead != nil && len(ep.Dead) != n {
		return nil, fmt.Errorf("durable: epoch has %d users but %d tombstone flags", n, len(ep.Dead))
	}
	size := 4 + 2*8 + 4 + len(ep.Algorithm) + 6*8 + usersBytes(ep.Users) + 4 + 4 + (n+7)/8 + 4
	for _, nbrs := range ep.Graph.Neighbors {
		size += 4 + neighborBytes*len(nbrs)
	}
	b := append(make([]byte, 0, size), epochMagic[:]...)
	b = appendStr(le.AppendUint64(le.AppendUint64(b, uint64(ep.Seq)), uint64(ep.K)), ep.Algorithm)
	for _, v := range [...]uint64{uint64(ep.BuiltAt.UnixNano()), uint64(ep.Duration),
		uint64(ep.Stats.Comparisons), uint64(ep.Stats.Iterations), uint64(ep.Stats.Updates), ep.MutSeq} {
		b = le.AppendUint64(b, v)
	}
	b, err := appendUsers(b, ep.Users)
	if err != nil {
		return nil, err
	}
	b = le.AppendUint32(b, uint32(n))
	for _, nbrs := range ep.Graph.Neighbors {
		b = appendNeighbors(b, nbrs)
	}
	return seal(appendBitmap(b, n, ep.Dead)), nil
}

// decodeEpoch parses an epoch snapshot, verifying checksum, structure, and
// that every neighbor index is a valid node — a recovered epoch must be
// servable without bounds panics.
func decodeEpoch(data []byte) (EpochData, error) {
	d, magic := openSnapshot(data, epochMagicV1, epochMagic)
	ep := EpochData{Seq: int64(d.u64())}
	if k := d.u64(); d.err == nil && k > 1<<30 {
		d.fail("implausible k %d", k)
	} else {
		ep.K = int(k)
	}
	ep.Algorithm = d.str(maxAlgorithmBytes)
	ep.BuiltAt = time.Unix(0, int64(d.u64()))
	ep.Duration = time.Duration(d.u64())
	ep.Stats = knn.Stats{Comparisons: int64(d.u64()), Iterations: int(d.u64()), Updates: int64(d.u64())}
	ep.MutSeq = d.u64()
	ep.Users = d.users()
	n := len(ep.Users)
	if m := d.u32(); d.err == nil && int64(m) != int64(n) {
		d.fail("graph has %d nodes but %d users", m, n)
	}
	ep.Graph = &knn.Graph{K: ep.K, Neighbors: make([][]knn.Neighbor, n)}
	for i := range ep.Graph.Neighbors {
		if ep.Graph.Neighbors[i] = d.neighbors(uint32(n)); d.err != nil {
			break
		}
	}
	if magic == epochMagic {
		ep.Dead = d.bitmap(n)
	} else {
		ep.Dead = make([]bool, n) // v1 epochs predate tombstones
	}
	if err := d.end("epoch snapshot"); err != nil {
		return EpochData{}, err
	}
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
