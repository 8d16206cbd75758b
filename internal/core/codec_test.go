package core

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"goldfinger/internal/profile"
)

func TestFingerprintRoundTrip(t *testing.T) {
	s := MustScheme(1024, 5)
	for _, p := range []profile.Profile{
		nil,
		profile.New(1),
		profile.New(1, 2, 3, 1000, 424242),
	} {
		fp := s.Fingerprint(p)
		var buf bytes.Buffer
		if err := WriteFingerprint(&buf, fp); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFingerprint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Bits().Equal(fp.Bits()) || got.Cardinality() != fp.Cardinality() {
			t.Errorf("round trip changed fingerprint of %v", p)
		}
	}
}

func TestFingerprintRoundTripProperty(t *testing.T) {
	s := MustScheme(256, 6)
	f := func(items []int32) bool {
		fp := s.Fingerprint(profile.New(items...))
		var buf bytes.Buffer
		if err := WriteFingerprint(&buf, fp); err != nil {
			return false
		}
		got, err := ReadFingerprint(&buf)
		if err != nil {
			return false
		}
		if !got.Bits().Equal(fp.Bits()) {
			return false
		}
		// Non-empty fingerprints must keep self-similarity 1 across the
		// wire; empty ones estimate 0 by convention.
		return fp.Cardinality() == 0 || Jaccard(got, fp) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteZeroFingerprintRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFingerprint(&buf, Fingerprint{}); err == nil {
		t.Error("zero Fingerprint serialized")
	}
}

func TestReadFingerprintErrors(t *testing.T) {
	s := MustScheme(128, 7)
	fp := s.Fingerprint(profile.New(1, 2, 3))
	var ok bytes.Buffer
	if err := WriteFingerprint(&ok, fp); err != nil {
		t.Fatal(err)
	}
	good := ok.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-3],
	}
	for name, data := range cases {
		if _, err := ReadFingerprint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}

	// Corrupt the cardinality: must be detected.
	corrupt := append([]byte(nil), good...)
	corrupt[8]++ // low byte of cardinality
	if _, err := ReadFingerprint(bytes.NewReader(corrupt)); err == nil ||
		!strings.Contains(err.Error(), "cardinality mismatch") {
		t.Errorf("cardinality corruption not detected: %v", err)
	}

	// Implausible length.
	huge := append([]byte(nil), good...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadFingerprint(bytes.NewReader(huge)); err == nil {
		t.Error("implausible length accepted")
	}
}

// TestCodecPreservesSimilarity is the deployment scenario end to end:
// fingerprints serialized by clients and deserialized by the server give
// the same estimates as the originals.
func TestCodecPreservesSimilarity(t *testing.T) {
	s := MustScheme(1024, 9)
	p1 := profile.New(1, 2, 3, 4, 5, 6, 7, 8)
	p2 := profile.New(5, 6, 7, 8, 9, 10, 11, 12)
	f1, f2 := s.Fingerprint(p1), s.Fingerprint(p2)
	var buf bytes.Buffer
	for _, f := range []Fingerprint{f1, f2} {
		if err := WriteFingerprint(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	g1, err := ReadFingerprint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFingerprint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if Jaccard(g1, g2) != Jaccard(f1, f2) {
		t.Error("similarity changed across the wire")
	}
}
