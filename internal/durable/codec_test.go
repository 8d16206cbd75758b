package durable

import (
	"hash/crc32"
	"runtime"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// decodeSet reads exactly one fingerprint set from b.
func decodeSet(b []byte) ([]core.Fingerprint, error) {
	d := dec{b: b}
	fps := d.fingerprints()
	return fps, d.end("fingerprint set")
}

func TestFingerprintSetRoundTrip(t *testing.T) {
	s := core.MustScheme(512, 8)
	fps := s.FingerprintAll([]profile.Profile{
		profile.New(1, 2),
		profile.New(3, 4, 5),
		nil,
	})
	b, err := appendFingerprints(nil, fps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSet(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fps) {
		t.Fatalf("got %d fingerprints, want %d", len(got), len(fps))
	}
	for i := range fps {
		if !got[i].Bits().Equal(fps[i].Bits()) || got[i].Cardinality() != fps[i].Cardinality() {
			t.Errorf("fingerprint %d changed", i)
		}
	}
}

func TestFingerprintSetEmpty(t *testing.T) {
	b, err := appendFingerprints(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSet(b)
	if err != nil || len(got) != 0 {
		t.Errorf("empty set round trip: %v, %v", got, err)
	}
}

func TestFingerprintSetMixedLengthsRejected(t *testing.T) {
	b := le.AppendUint32(nil, 2)
	for _, bits := range []int{64, 128} {
		var err error
		if b, err = core.AppendFingerprint(b, core.MustScheme(bits, 1).Fingerprint(profile.New(1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := decodeSet(b); err == nil {
		t.Error("mixed-length set accepted")
	}
}

// TestFingerprintSetForgedCountCapsAllocation: a count is checked against
// the bytes left before anything is allocated for it, so a forged header
// fails at once instead of reserving entry-count capacity (2^28
// Fingerprints would be multiple GiB).
func TestFingerprintSetForgedCountCapsAllocation(t *testing.T) {
	if _, err := decodeSet([]byte{0, 0, 0, 0x10}); err == nil { // count = 1<<28
		t.Fatal("truncated set with forged count accepted")
	}
	one, err := core.AppendFingerprint(nil, core.MustScheme(64, 1).Fingerprint(profile.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte{0, 0, 0x10, 0}, one...) // count = 1<<20, one entry present
	if _, err := decodeSet(forged); err == nil {
		t.Fatal("truncated set accepted")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeSet(forged)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 { // the forged count asks for 16 MiB
		t.Fatalf("a forged count allocated %d bytes", got)
	}
}

// TestCodecNeighborChecks: the one neighbour-list decoder, under both the
// epoch and the graph delta, refuses an id at or above its limit and a
// similarity outside [0,1].
func TestCodecNeighborChecks(t *testing.T) {
	entry := func(id uint32, sim float64) []byte {
		return appendNeighbors(nil, []knn.Neighbor{{ID: int32(id), Sim: sim}})
	}
	for name, c := range map[string]struct {
		b     []byte
		limit uint32
		ok    bool
	}{
		"in range":       {entry(2, 0.5), 3, true},
		"id at limit":    {entry(3, 0.5), 3, false},
		"sim above one":  {entry(0, 1.5), 3, false},
		"negative sim":   {entry(0, -0.25), 3, false},
		"count too high": {le.AppendUint32(nil, 1), 3, false},
	} {
		d := dec{b: c.b}
		d.neighbors(c.limit)
		if err := d.end("neighbours"); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", name, err, c.ok)
		}
	}
}

// TestAppendRecordRefusesLongID: an id no snapshot could carry is refused
// at the WAL, while a WAL already holding one still replays.
func TestAppendRecordRefusesLongID(t *testing.T) {
	fp := testFP(t, 1, 2)
	long := string(make([]byte, core.MaxUserIDBytes+1))
	for _, kind := range []RecordKind{KindPut, KindDelete} {
		if _, err := AppendRecord(nil, Record{Kind: kind, ID: long, FP: fp}); err == nil {
			t.Errorf("kind %d: a %d-byte id was encoded", kind, len(long))
		}
	}
	if _, err := AppendRecord(nil, Record{Kind: KindPut, ID: long[1:], FP: fp}); err != nil {
		t.Fatalf("a %d-byte id was refused: %v", core.MaxUserIDBytes, err)
	}

	recs, _, err := ScanWAL(legacyPutFrame(t, 5, long, fp))
	if err != nil || len(recs) != 1 || recs[0].ID != long {
		t.Fatalf("legacy long-id record: %d records, err %v", len(recs), err)
	}
}

// legacyPutFrame is the bytes an unbounded encoder wrote for a put: the
// payload sealed in a record frame by hand, so id may be over
// core.MaxUserIDBytes.
func legacyPutFrame(t testing.TB, seq uint64, id string, fp core.Fingerprint) []byte {
	t.Helper()
	payload, err := core.AppendFingerprint(appendStr(le.AppendUint64([]byte{byte(KindPut)}, seq), id), fp)
	if err != nil {
		t.Fatal(err)
	}
	frame := le.AppendUint32(le.AppendUint32(nil, uint32(len(payload))), crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}
