package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
)

// ErrDegraded is returned by every mutating Store method once the data
// directory has failed a write: the store is read-only for the rest of the
// process lifetime and the in-memory state is the only truth. The service
// maps this to 503 + Retry-After on write endpoints while queries keep
// serving.
var ErrDegraded = errors.New("durable: store is degraded (data dir failed a write); read-only")

// Metric names exported into the service registry.
const (
	MetricWALAppends       = "wal_appends"
	MetricWALFsyncs        = "wal_fsyncs"
	MetricWALBytes         = "wal_bytes"   // gauge: active segment size
	MetricWALRecords       = "wal_records" // gauge: records in the active segment
	MetricReplayedRecords  = "recovery_records_replayed"
	MetricDroppedBytes     = "recovery_bytes_dropped"
	MetricQuarantinedFiles = "recovery_files_quarantined"
	MetricSnapshotsWritten = "snapshots_written"
	MetricDegraded         = "degraded" // gauge: 0 healthy, 1 read-only
)

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// FS defaults to OSFS. Tests substitute a FaultFS.
	FS FS
	// Fsync is the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// Metrics receives the durability counters/gauges; nil disables them.
	Metrics *obs.Registry
	// Logf receives recovery and degradation reports (log.Printf-shaped);
	// nil discards them.
	Logf func(format string, args ...any)
	// CompactBytes is the active-segment size at which ShouldCompact
	// reports true (default 4 MiB; <0 disables size-triggered compaction).
	CompactBytes int64
}

// Recovery is what Open reassembled from the data directory.
type Recovery struct {
	// State is the recovered user table + fingerprints + mutation counter:
	// the newest valid snapshot with every valid WAL record replayed over
	// it.
	State State
	// Epoch is the recovered graph epoch, nil if none was persisted (or the
	// epoch snapshot was corrupt, or SkippedPuts is nonzero — state
	// recovery does not depend on it).
	// Graph-delta WAL records newer than the persisted epoch have been
	// applied to it, so the graph is warm: current up to Epoch.MutSeq.
	Epoch *EpochData
	// RecordsReplayed counts WAL records applied over the snapshot.
	RecordsReplayed int
	// DeltasApplied counts graph-delta records applied onto the epoch.
	DeltasApplied int
	// SkippedPuts counts WAL puts not replayed because their user id is
	// over core.MaxUserIDBytes — written before AppendRecord bounded ids.
	// No snapshot can carry such a user, so replaying one would fail every
	// later compaction. When any is skipped the epoch is not loaded: its
	// rows and deltas index the user table that held them.
	SkippedPuts int
	// BytesDropped counts torn-tail WAL bytes truncated during recovery.
	BytesDropped int64
	// Quarantined lists files renamed to *.corrupt instead of being loaded.
	Quarantined []string
	// Migration is the interrupted shard handoff, if the WAL carries a
	// MigImportBegin mark with no matching MigImportDone: the crash
	// happened mid-import and the transfer must be resumed (re-importing
	// is idempotent). nil when no handoff is pending.
	Migration *PendingMigration
}

// PendingMigration identifies an import that was journaled as begun but
// not as done.
type PendingMigration struct {
	Epoch uint64 // ring epoch being migrated to
	From  string // shard the users were being pulled from
}

// Store owns the data directory. All methods are safe for concurrent use.
type Store struct {
	fsys         FS
	dir          string
	fsync        FsyncPolicy
	logf         func(string, ...any)
	compactBytes int64

	mu      sync.Mutex // serializes WAL appends and segment rotation
	active  *wal
	gen     uint64
	lastSeq uint64 // MutSeq of the last appended record

	snapMu   sync.Mutex // serializes Compact and SaveEpoch
	degraded atomic.Bool

	mAppends     *obs.Counter
	mFsyncs      *obs.Counter
	mWALBytes    *obs.Gauge
	mWALRecords  *obs.Gauge
	mSnapshots   *obs.Counter
	mDegraded    *obs.Gauge
	mQuarantined *obs.Counter
}

func walName(gen uint64) string   { return fmt.Sprintf("wal-%08d.log", gen) }
func stateName(gen uint64) string { return fmt.Sprintf("state-%08d.snap", gen) }

const epochName = "epoch.snap"

// parseGen extracts the generation from a wal-/state- file name, or
// ok=false for anything else (tmp files, quarantined files, strays).
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Open recovers the data directory and returns a store appending to its
// active WAL segment. Open never fails on corrupt state files — they are
// quarantined and recovery proceeds with what verifies — but does fail on
// I/O errors that prevent reading the directory or opening the active
// segment, since a store that cannot accept writes should not start.
func Open(opts Options) (*Store, Recovery, error) {
	if opts.Dir == "" {
		return nil, Recovery{}, errors.New("durable: Options.Dir is required")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	compactBytes := opts.CompactBytes
	if compactBytes == 0 {
		compactBytes = 4 << 20
	}
	s := &Store{
		fsys:         fsys,
		dir:          opts.Dir,
		fsync:        opts.Fsync,
		logf:         logf,
		compactBytes: compactBytes,
		mAppends:     opts.Metrics.Counter(MetricWALAppends),
		mFsyncs:      opts.Metrics.Counter(MetricWALFsyncs),
		mWALBytes:    opts.Metrics.Gauge(MetricWALBytes),
		mWALRecords:  opts.Metrics.Gauge(MetricWALRecords),
		mSnapshots:   opts.Metrics.Counter(MetricSnapshotsWritten),
		mDegraded:    opts.Metrics.Gauge(MetricDegraded),
		mQuarantined: opts.Metrics.Counter(MetricQuarantinedFiles),
	}
	s.mDegraded.Set(0)

	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, Recovery{}, fmt.Errorf("durable: creating data dir: %w", err)
	}
	names, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("durable: reading data dir: %w", err)
	}
	var stateGens, walGens []uint64
	for _, name := range names {
		if g, ok := parseGen(name, "state-", ".snap"); ok {
			stateGens = append(stateGens, g)
		}
		if g, ok := parseGen(name, "wal-", ".log"); ok {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(stateGens, func(i, j int) bool { return stateGens[i] > stateGens[j] }) // newest first
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })       // oldest first

	var rec Recovery
	quarantineFile := func(path string, reason error) {
		s.mQuarantined.Inc()
		if dst, qerr := quarantine(fsys, path); qerr != nil {
			logf("durable: quarantining %s: %v (original error: %v)", path, qerr, reason)
		} else {
			logf("durable: quarantined %s as %s: %v", filepath.Base(path), dst, reason)
			rec.Quarantined = append(rec.Quarantined, dst)
		}
	}

	// Newest snapshot whose checksum verifies wins; corrupt ones are
	// quarantined and the next-older one is tried.
	baseGen := uint64(0)
	for _, g := range stateGens {
		path := filepath.Join(opts.Dir, stateName(g))
		data, rerr := fsys.ReadFile(path)
		if rerr != nil {
			logf("durable: reading snapshot %s: %v", stateName(g), rerr)
			continue
		}
		st, derr := DecodeState(data)
		if derr != nil {
			quarantineFile(path, derr)
			continue
		}
		rec.State = st
		baseGen = g
		break
	}

	// Replay WAL segments of the snapshot's generation and later, oldest
	// first. A torn record truncates its segment at the last good byte.
	index := make(map[string]int, len(rec.State.Users))
	for i, id := range rec.State.Users {
		index[id] = i
	}
	replayed := obs.Local{C: opts.Metrics.Counter(MetricReplayedRecords)}
	genRecs := make(map[uint64]int64, len(walGens)) // surviving records per segment
	// Graph deltas are collected during the scan and applied onto the
	// epoch snapshot afterwards: their skip rule is the epoch's mutSeq,
	// not the state snapshot's (the epoch file may be older or newer).
	var deltas []Record
	for _, g := range walGens {
		path := filepath.Join(opts.Dir, walName(g))
		if g < baseGen {
			// Fully covered by the snapshot; a crash interrupted the
			// compaction that would have deleted it.
			if rerr := fsys.Remove(path); rerr != nil {
				logf("durable: removing obsolete segment %s: %v", walName(g), rerr)
			}
			continue
		}
		data, rerr := fsys.ReadFile(path)
		if rerr != nil {
			if notExist(rerr) {
				continue
			}
			return nil, Recovery{}, fmt.Errorf("durable: reading WAL %s: %w", walName(g), rerr)
		}
		recs, goodLen, serr := ScanWAL(data)
		genRecs[g] = int64(len(recs))
		for _, r := range recs {
			if r.Kind == KindGraphDelta {
				deltas = append(deltas, r)
				continue
			}
			if r.Kind == KindMigration {
				// Handoff marks are not state mutations and are not covered
				// by snapshots, so they are tracked regardless of the mutSeq
				// skip rule: the latest begin with no matching done leaves a
				// pending migration for the service to resume.
				switch m := r.Mig; m.Phase {
				case MigImportBegin:
					rec.Migration = &PendingMigration{Epoch: m.Epoch, From: m.Peer}
				case MigImportDone:
					if rec.Migration != nil && rec.Migration.Epoch == m.Epoch {
						rec.Migration = nil
					}
				}
				continue
			}
			if r.MutSeq <= rec.State.MutSeq {
				continue // already covered by the snapshot
			}
			switch r.Kind {
			case KindDelete:
				if i, ok := index[r.ID]; ok {
					for len(rec.State.Deleted) < len(rec.State.Users) {
						rec.State.Deleted = append(rec.State.Deleted, false)
					}
					rec.State.Deleted[i] = true
				}
			default: // KindPut (incl. legacy zero kind)
				if len(r.ID) > core.MaxUserIDBytes {
					// The user is dropped; its sequence number stays used.
					rec.SkippedPuts++
					rec.State.MutSeq = r.MutSeq
					continue
				}
				if i, ok := index[r.ID]; ok {
					rec.State.FPS[i] = r.FP
					if i < len(rec.State.Deleted) {
						rec.State.Deleted[i] = false // a put revives a tombstoned user
					}
				} else {
					index[r.ID] = len(rec.State.Users)
					rec.State.Users = append(rec.State.Users, r.ID)
					rec.State.FPS = append(rec.State.FPS, r.FP)
					if rec.State.Deleted != nil {
						rec.State.Deleted = append(rec.State.Deleted, false)
					}
				}
			}
			rec.State.MutSeq = r.MutSeq
			rec.RecordsReplayed++
			replayed.Inc()
		}
		if serr != nil {
			dropped := int64(len(data) - goodLen)
			rec.BytesDropped += dropped
			logf("durable: WAL %s has a torn tail at byte %d: %v; truncating %d bytes",
				walName(g), goodLen, serr, dropped)
			if terr := fsys.Truncate(path, int64(goodLen)); terr != nil {
				return nil, Recovery{}, fmt.Errorf("durable: truncating torn WAL %s: %w", walName(g), terr)
			}
		}
	}
	replayed.Flush()
	opts.Metrics.Counter(MetricDroppedBytes).Add(rec.BytesDropped)

	// The active segment continues the highest generation seen (WAL or
	// snapshot), so a crash-interrupted compaction resumes cleanly.
	s.gen = baseGen
	if len(walGens) > 0 && walGens[len(walGens)-1] > s.gen {
		s.gen = walGens[len(walGens)-1]
	}
	s.active, err = openWAL(fsys, filepath.Join(opts.Dir, walName(s.gen)), opts.Fsync)
	if err != nil {
		return nil, Recovery{}, err
	}
	s.lastSeq = rec.State.MutSeq
	// The reopened segment continues where the crash left it: seed the
	// record count from the scan so Info and the gauges stay truthful.
	s.active.recs = genRecs[s.gen]
	s.mWALBytes.Set(s.active.bytes)
	s.mWALRecords.Set(s.active.recs)

	// The epoch snapshot is independent of state recovery: if it is corrupt
	// the service simply starts without a built graph.
	epochPath := filepath.Join(opts.Dir, epochName)
	if rec.SkippedPuts > 0 {
		logf("durable: skipped %d puts whose user id is over %d bytes; not loading the epoch snapshot, whose graph indexes the user table that held them",
			rec.SkippedPuts, core.MaxUserIDBytes)
	} else if data, rerr := fsys.ReadFile(epochPath); rerr == nil {
		ep, derr := decodeEpoch(data)
		if derr != nil {
			quarantineFile(epochPath, derr)
		} else {
			rec.Epoch = &ep
		}
	} else if !notExist(rerr) {
		logf("durable: reading epoch snapshot: %v", rerr)
	}

	// Warm the recovered epoch: replay the graph deltas it has not seen, in
	// order. A delta that does not apply cleanly stops the warm-up — the
	// epoch stays consistent at the last good mutation (stale but correct;
	// the service sees MutSeq lag and falls back accordingly).
	if rec.Epoch != nil {
		ep := rec.Epoch
		if ep.Dead == nil {
			ep.Dead = make([]bool, len(ep.Users))
		}
		for _, d := range deltas {
			if d.MutSeq <= ep.MutSeq {
				continue
			}
			// Deltas are dense while the service keeps an epoch warm: every
			// accepted mutation emits exactly one. A gap means the deltas in
			// between are gone (compacted away against an older epoch file,
			// or generated against a newer epoch whose save never landed) —
			// applying across it would reconstruct a graph nobody ever
			// served, so the warm-up stops at the last contiguous mutation.
			if d.MutSeq != ep.MutSeq+1 {
				logf("durable: graph delta sequence jumps from %d to %d; epoch graph stays at mutSeq %d",
					ep.MutSeq, d.MutSeq, ep.MutSeq)
				break
			}
			if err := applyDeltaToEpoch(ep, d.Delta, rec.State.Users); err != nil {
				logf("durable: graph delta at mutSeq %d does not apply: %v; epoch graph stays at mutSeq %d",
					d.MutSeq, err, ep.MutSeq)
				break
			}
			ep.MutSeq = d.MutSeq
			rec.DeltasApplied++
		}
	}

	logf("durable: recovered %d users at mutSeq %d (snapshot gen %d, %d WAL records replayed, %d graph deltas applied, %d puts skipped, %d bytes dropped, %d files quarantined)",
		len(rec.State.Users), rec.State.MutSeq, baseGen, rec.RecordsReplayed, rec.DeltasApplied, rec.SkippedPuts, rec.BytesDropped, len(rec.Quarantined))
	return s, rec, nil
}

// applyDeltaToEpoch replays one graph delta onto a recovered epoch:
// verbatim adjacency assignment via knn.ApplyTouched, plus epoch
// bookkeeping (user table growth on insert, tombstone flips). users is the
// recovered state's user table — the identity source for nodes the epoch
// has not seen yet.
func applyDeltaToEpoch(ep *EpochData, d *GraphDelta, users []string) error {
	if d == nil {
		return errors.New("durable: record carries no delta")
	}
	n := len(ep.Graph.Neighbors)
	grow := 0
	switch d.Op {
	case DeltaInsert:
		if int(d.Node) != n {
			return fmt.Errorf("durable: insert delta for node %d, epoch has %d nodes", d.Node, n)
		}
		grow = 1
	case DeltaOverwrite, DeltaDelete:
		if int(d.Node) >= n {
			return fmt.Errorf("durable: delta for node %d, epoch has %d nodes", d.Node, n)
		}
	default:
		return fmt.Errorf("durable: unknown delta op %d", d.Op)
	}
	if n+grow > len(users) {
		return fmt.Errorf("durable: epoch would grow to %d nodes but state has %d users", n+grow, len(users))
	}
	// Pre-validate so ApplyTouched cannot grow past the single node this
	// mutation may add.
	for _, tn := range d.Adj {
		if int(tn.ID) >= n+grow {
			return fmt.Errorf("durable: delta touches node %d beyond %d", tn.ID, n+grow-1)
		}
	}
	if err := knn.ApplyTouched(ep.Graph, d.Adj); err != nil {
		return err
	}
	for len(ep.Users) < len(ep.Graph.Neighbors) {
		ep.Users = append(ep.Users, users[len(ep.Users)])
		ep.Dead = append(ep.Dead, false)
	}
	switch d.Op {
	case DeltaDelete:
		ep.Dead[d.Node] = true
	default:
		if int(d.Node) < len(ep.Dead) {
			ep.Dead[d.Node] = false
		}
	}
	return nil
}

// Append durably logs one mutation. It returns only after the record is
// written (and, under FsyncAlways, fsynced) — the caller acks the client
// after Append returns nil. A record that does not encode is refused with
// the segment untouched; any write failure flips the store to degraded
// mode: the segment tail must be assumed torn, so no further appends are
// accepted.
func (s *Store) Append(rec Record) error {
	buf, err := AppendRecord(nil, rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded.Load() {
		return ErrDegraded
	}
	if s.active == nil {
		return errors.New("durable: store is closed")
	}
	synced, err := s.active.append(buf)
	if err != nil {
		s.setDegraded(err)
		return err
	}
	s.lastSeq = rec.MutSeq
	s.mAppends.Inc()
	if synced {
		s.mFsyncs.Inc()
	}
	s.mWALBytes.Set(s.active.bytes)
	s.mWALRecords.Set(s.active.recs)
	return nil
}

// ShouldCompact reports whether the active segment has outgrown the
// compaction threshold.
func (s *Store) ShouldCompact() bool {
	if s.compactBytes < 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active != nil && s.active.bytes >= s.compactBytes
}

// Compact seals the active WAL segment, starts the next generation, writes
// a state snapshot covering everything sealed, and deletes the segments and
// snapshots the new snapshot supersedes. Appends are blocked only for the
// seal + rotation; the snapshot encode/write happens with appends flowing
// into the new segment.
//
// capture must return the caller's *current* state — and, when one exists,
// the current graph epoch (nil is fine) — and may be invoked more than
// once: a record can be durable in a sealed segment before the caller has
// applied it in memory, so Compact re-captures until the returned MutSeq
// covers every sealed record — deleting a sealed segment on the strength
// of a snapshot that misses one of its records would lose an acked write.
// If the caller's state does not catch up within five seconds, the
// compaction is abandoned (sealed segments are kept; recovery replays
// them) and an error is returned.
//
// The epoch is persisted alongside the state snapshot before any sealed
// segment is deleted: sealed segments carry the graph deltas that keep the
// on-disk epoch warm, so deleting them while epoch.snap lags would silently
// cool recovery. If only the epoch write fails the store degrades but the
// state snapshot stands.
func (s *Store) Compact(capture func() (State, *EpochData)) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.degraded.Load() {
		return ErrDegraded
	}

	s.mu.Lock()
	if s.active == nil {
		s.mu.Unlock()
		return errors.New("durable: store is closed")
	}
	if err := s.active.seal(); err != nil {
		s.setDegraded(err)
		s.mu.Unlock()
		return err
	}
	sealedSeq := s.lastSeq
	newGen := s.gen + 1
	w, err := openWAL(s.fsys, filepath.Join(s.dir, walName(newGen)), s.fsync)
	if err != nil {
		s.setDegraded(err)
		s.mu.Unlock()
		return err
	}
	s.active = w
	s.gen = newGen
	s.mu.Unlock()

	var st State
	var ep *EpochData
	for deadline := time.Now().Add(5 * time.Second); ; {
		st, ep = capture()
		if st.MutSeq >= sealedSeq {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("durable: compaction abandoned: captured state at mutSeq %d never covered sealed mutSeq %d",
				st.MutSeq, sealedSeq)
		}
		time.Sleep(200 * time.Microsecond)
	}

	data, err := EncodeState(st)
	if err != nil {
		// Encoding failure is a caller bug, not a storage fault: the sealed
		// segments still hold every record, so the store stays healthy.
		return err
	}
	if err := writeFileAtomic(s.fsys, s.dir, stateName(newGen), data); err != nil {
		// The snapshot did not land but the sealed segments are intact;
		// recovery would still see every acked record. The write failure
		// means the dir is unhealthy, so degrade.
		s.setDegraded(err)
		return err
	}
	s.mSnapshots.Inc()
	s.mWALBytes.Set(0)
	s.mWALRecords.Set(0)

	// Persist the epoch before deleting the sealed segments that carry its
	// deltas — otherwise recovery would find an epoch older than any delta
	// left on disk.
	if ep != nil {
		epData, eerr := encodeEpoch(*ep)
		if eerr != nil {
			s.logf("durable: encoding epoch during compaction: %v", eerr)
		} else if werr := writeFileAtomic(s.fsys, s.dir, epochName, epData); werr != nil {
			s.setDegraded(werr)
			return werr
		} else {
			s.mSnapshots.Inc()
		}
	}

	// Only after the new snapshot is durable: drop what it supersedes.
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		s.logf("durable: listing data dir after compaction: %v", err)
		return nil
	}
	for _, name := range names {
		if g, ok := parseGen(name, "wal-", ".log"); ok && g < newGen {
			if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil {
				s.logf("durable: removing sealed segment %s: %v", name, err)
			}
		}
		if g, ok := parseGen(name, "state-", ".snap"); ok && g < newGen {
			if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil {
				s.logf("durable: removing superseded snapshot %s: %v", name, err)
			}
		}
	}
	return nil
}

// SaveEpoch atomically persists the latest graph epoch. Failure degrades
// the store (the dir refused a write) but the in-memory epoch keeps
// serving.
func (s *Store) SaveEpoch(ep EpochData) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.degraded.Load() {
		return ErrDegraded
	}
	data, err := encodeEpoch(ep)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(s.fsys, s.dir, epochName, data); err != nil {
		s.setDegraded(err)
		return err
	}
	s.mSnapshots.Inc()
	return nil
}

// Degraded reports whether the store has flipped to read-only mode.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// setDegraded marks the store read-only. Callers hold whatever lock made
// the failing operation exclusive; the flag itself is atomic.
func (s *Store) setDegraded(cause error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.mDegraded.Set(1)
		s.logf("durable: entering degraded read-only mode: %v", cause)
	}
}

// Info is a point-in-time durability summary for /stats.
type Info struct {
	Gen        uint64
	WALBytes   int64
	WALRecords int64
	Degraded   bool
}

// Info returns the current durability summary.
func (s *Store) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{Gen: s.gen, Degraded: s.degraded.Load()}
	if s.active != nil {
		info.WALBytes = s.active.bytes
		info.WALRecords = s.active.recs
	}
	return info
}

// Close seals the active segment. A crash without Close loses nothing that
// was acked — Close only makes the final fsync explicit for FsyncNone.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.seal()
	s.active = nil
	if err != nil && !s.degraded.Load() {
		return err
	}
	return nil
}
