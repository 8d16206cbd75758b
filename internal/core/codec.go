package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"goldfinger/internal/bitset"
)

// The wire format matches the paper's deployment story (§2.5): a client
// fingerprints its profile locally and uploads only the SHF to an
// untrusted KNN-construction service. A fingerprint serializes as:
//
//	magic "SHF1" | uint32 bits | uint32 cardinality | bit-array words (LE)
//
// All integers are little-endian. The server's persisted formats (WAL,
// snapshots, the migration stream) embed this encoding; their own codec
// lives in internal/durable.

var codecMagic = [4]byte{'S', 'H', 'F', '1'}

// MaxUserIDBytes bounds one user id. External ids are short opaque
// strings; the service refuses a longer one at upload, and the durable
// formats refuse to write or read one.
const MaxUserIDBytes = 1 << 12

// AppendFingerprint appends the wire encoding of f to b.
func AppendFingerprint(b []byte, f Fingerprint) ([]byte, error) {
	if f.bits == nil {
		return b, fmt.Errorf("core: cannot serialize a zero Fingerprint")
	}
	b = append(slices.Grow(b, 12+8*len(f.bits.Words())), codecMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.bits.Len()))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.card))
	for _, word := range f.bits.Words() {
		b = binary.LittleEndian.AppendUint64(b, word)
	}
	return b, nil
}

// WriteFingerprint serializes one fingerprint to w.
func WriteFingerprint(w io.Writer, f Fingerprint) error {
	b, err := AppendFingerprint(nil, f)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: writing fingerprint: %w", err)
	}
	return nil
}

// ReadFingerprint deserializes one fingerprint from r, validating the
// magic, the cardinality and the spare-bit invariant so corrupted inputs
// are rejected rather than silently producing wrong similarities.
func ReadFingerprint(r io.Reader) (Fingerprint, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Fingerprint{}, fmt.Errorf("core: reading magic: %w", err)
	}
	if magic != codecMagic {
		return Fingerprint{}, fmt.Errorf("core: bad magic %q", magic)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Fingerprint{}, fmt.Errorf("core: reading header: %w", err)
	}
	bits := int(binary.LittleEndian.Uint32(hdr[0:4]))
	card := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if bits <= 0 || bits > 1<<24 {
		return Fingerprint{}, fmt.Errorf("core: implausible fingerprint length %d", bits)
	}
	words := (bits + 63) / 64
	buf := make([]byte, 8*words)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Fingerprint{}, fmt.Errorf("core: reading bit array: %w", err)
	}
	raw := make([]uint64, words)
	for i := range raw {
		raw[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	b := bitset.FromWords(raw, bits)
	if got := b.Count(); got != card {
		return Fingerprint{}, fmt.Errorf("core: cardinality mismatch: header says %d, bit array has %d", card, got)
	}
	return Fingerprint{bits: b, card: card}, nil
}
