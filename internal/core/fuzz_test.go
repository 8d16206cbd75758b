package core

import (
	"bytes"
	"testing"

	"goldfinger/internal/profile"
)

// FuzzReadFingerprint asserts the codec rejects arbitrary bytes without
// panicking, and that any accepted payload is internally consistent.
func FuzzReadFingerprint(f *testing.F) {
	// Seed with a valid fingerprint and some mutations.
	s := MustScheme(128, 1)
	var valid bytes.Buffer
	if err := WriteFingerprint(&valid, s.Fingerprint(profile.New(1, 2, 3))); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("SHF1"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, err := ReadFingerprint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fp.Cardinality() != fp.Bits().Count() {
			t.Fatal("accepted fingerprint with inconsistent cardinality")
		}
		if fp.NumBits() <= 0 {
			t.Fatal("accepted fingerprint with non-positive length")
		}
		// Round trip must be stable.
		var buf bytes.Buffer
		if err := WriteFingerprint(&buf, fp); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		fp2, err := ReadFingerprint(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !fp2.Bits().Equal(fp.Bits()) {
			t.Fatal("round trip changed bits")
		}
	})
}
