package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
)

// One field codec sits under every durable format: the WAL record
// payloads (wal.go), the state and epoch snapshots (snapshot.go) and, as a
// sealed state snapshot is also what GET /migrate/export answers with,
// the shard-to-shard handoff. Each field has an append* encoder and a dec
// method that reads it back, so a format is the same sequence of calls on
// both sides. All integers are little-endian; similarities travel as
// IEEE-754 bit patterns, so decode→encode is byte-exact.

var le = binary.LittleEndian

const (
	// maxEntries bounds a user table or fingerprint set.
	maxEntries = 1 << 28
	// maxNeighbors bounds one neighbour list.
	maxNeighbors = 1 << 20
	// neighborBytes is one (uint32 id, uint64 similarity bits) entry.
	neighborBytes = 12
	// minFingerprintBytes is core's smallest fingerprint: magic, header
	// and one word.
	minFingerprintBytes = 12 + 8
)

// dec reads fields from one payload slice. The first failure is sticky:
// every later read returns a zero value, so a decoder reads its format
// straight through and reports once, through end. Loops over a count stop
// at the first failure.
type dec struct {
	b   []byte
	err error
	r   bytes.Reader // fingerprints are read through core's codec
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes the next n bytes.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail("payload ends %d bytes short", n-len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// zeros is what a fixed-size field reads after a failure.
var zeros [8]byte

// fixed consumes an n-byte field, n ≤ 8.
func (d *dec) fixed(n int) []byte {
	if p := d.take(n); p != nil {
		return p
	}
	return zeros[:n]
}

func (d *dec) u8() uint8   { return d.fixed(1)[0] }
func (d *dec) u32() uint32 { return le.Uint32(d.fixed(4)) }
func (d *dec) u64() uint64 { return le.Uint64(d.fixed(8)) }

// count reads an entry count and checks it against max and against the
// bytes left at minBytesEach per entry, so a forged count fails here,
// before anything is allocated for it.
func (d *dec) count(max, minBytesEach int) int {
	n := int64(d.u32())
	if d.err == nil && (n > int64(max) || n*int64(minBytesEach) > int64(len(d.b))) {
		d.fail("count %d exceeds %d or the %d bytes left", n, max, len(d.b))
		return 0
	}
	return int(n)
}

// index reads a node index below limit.
func (d *dec) index(limit uint32) int32 {
	v := d.u32()
	if d.err == nil && v >= limit {
		d.fail("node %d out of range [0,%d)", v, limit)
		return 0
	}
	return int32(v)
}

// str reads a length-prefixed string of at most max bytes.
func (d *dec) str(max int) string {
	return string(d.take(d.count(max, 1)))
}

func appendStr(b []byte, s string) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

// bitmap reads a bit-packed bool slice that must describe exactly n
// entries.
func (d *dec) bitmap(n int) []bool {
	if m := d.u32(); d.err == nil && int64(m) != int64(n) {
		d.fail("bitmap describes %d entries, want %d", m, n)
	}
	packed := d.take((n + 7) / 8)
	if d.err != nil {
		return nil
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return bits
}

// appendBitmap encodes n flags; nil bits means all false.
func appendBitmap(b []byte, n int, bits []bool) []byte {
	b = le.AppendUint32(b, uint32(n))
	start := len(b)
	b = append(b, make([]byte, (n+7)/8)...)
	for i, set := range bits {
		if set {
			b[start+i/8] |= 1 << (i % 8)
		}
	}
	return b
}

// users reads a user table: a count, then that many length-prefixed ids
// of at most core.MaxUserIDBytes each.
func (d *dec) users() []string {
	ids := make([]string, d.count(maxEntries, 4))
	for i := range ids {
		if ids[i] = d.str(core.MaxUserIDBytes); d.err != nil {
			return nil
		}
	}
	return ids
}

// appendUsers encodes a user table. An id over core.MaxUserIDBytes is
// refused: no decoder would read it back.
func appendUsers(b []byte, ids []string) ([]byte, error) {
	b = le.AppendUint32(b, uint32(len(ids)))
	for i, id := range ids {
		if len(id) > core.MaxUserIDBytes {
			return nil, fmt.Errorf("durable: user id %d is %d bytes, max %d", i, len(id), core.MaxUserIDBytes)
		}
		b = appendStr(b, id)
	}
	return b, nil
}

func usersBytes(ids []string) int {
	n := 4 + 4*len(ids)
	for _, id := range ids {
		n += len(id)
	}
	return n
}

// fingerprint reads one fingerprint in core's wire format.
func (d *dec) fingerprint() core.Fingerprint {
	if d.err != nil {
		return core.Fingerprint{}
	}
	d.r.Reset(d.b)
	fp, err := core.ReadFingerprint(&d.r)
	if err != nil {
		d.err = err
		return core.Fingerprint{}
	}
	d.b = d.b[len(d.b)-d.r.Len():]
	return fp
}

// fingerprintBytes is fp's wire size (0 for the zero Fingerprint, which
// does not encode), for presizing.
func fingerprintBytes(fp core.Fingerprint) int {
	if fp.Bits() == nil {
		return 0
	}
	return 12 + 8*len(fp.Bits().Words())
}

// fingerprints reads a count, then that many fingerprints of one length
// (mixed lengths cannot be compared).
func (d *dec) fingerprints() []core.Fingerprint {
	fps := make([]core.Fingerprint, d.count(maxEntries, minFingerprintBytes))
	for i := range fps {
		if fps[i] = d.fingerprint(); d.err != nil {
			d.err = fmt.Errorf("fingerprint %d: %w", i, d.err)
			return nil
		}
		if fps[i].NumBits() != fps[0].NumBits() {
			d.fail("fingerprint %d has %d bits, set uses %d", i, fps[i].NumBits(), fps[0].NumBits())
			return nil
		}
	}
	return fps
}

func appendFingerprints(b []byte, fps []core.Fingerprint) ([]byte, error) {
	b = le.AppendUint32(b, uint32(len(fps)))
	for i, fp := range fps {
		var err error
		if b, err = core.AppendFingerprint(b, fp); err != nil {
			return nil, fmt.Errorf("durable: fingerprint %d: %w", i, err)
		}
	}
	return b, nil
}

// neighbors reads one neighbour list: a count, then (id, similarity)
// pairs. Every id must be below limit and every similarity a Jaccard value
// in [0,1], so a bit flip in either cannot survive into a served graph.
func (d *dec) neighbors(limit uint32) []knn.Neighbor {
	p := d.take(neighborBytes * d.count(maxNeighbors, neighborBytes))
	if d.err != nil {
		return nil
	}
	nbrs := make([]knn.Neighbor, len(p)/neighborBytes)
	for j := range nbrs {
		e := p[neighborBytes*j : neighborBytes*(j+1)]
		id, sim := le.Uint32(e), math.Float64frombits(le.Uint64(e[4:]))
		if id >= limit {
			d.fail("neighbour %d out of range [0,%d)", id, limit)
			return nil
		}
		if !(sim >= 0 && sim <= 1) {
			d.fail("similarity %v out of [0,1]", sim)
			return nil
		}
		nbrs[j] = knn.Neighbor{ID: int32(id), Sim: sim}
	}
	return nbrs
}

func appendNeighbors(b []byte, nbrs []knn.Neighbor) []byte {
	b = le.AppendUint32(b, uint32(len(nbrs)))
	for _, nb := range nbrs {
		b = le.AppendUint64(le.AppendUint32(b, uint32(nb.ID)), math.Float64bits(nb.Sim))
	}
	return b
}

// end reports the first failure — or trailing bytes, since a payload must
// be consumed exactly — as an error about the named format.
func (d *dec) end(what string) error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("durable: %s: %w", what, d.err)
	}
	return nil
}
