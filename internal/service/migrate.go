package service

// The shard-side half of the ring-change migration protocol. The router
// drives it; this file implements what a shard-core must do:
//
//   POST /ring            install a placement ring (epoch, names, mode)
//   GET  /ring            read the installed ring
//   GET  /migrate/export  stream the users a gaining shard must take
//   POST /migrate/import  pull an export stream and apply it via the WAL
//   POST /migrate/retire  tombstone the users handed off after cutover
//
// The protocol, end to end (the driver in internal/router sequences it):
//
//  1. transition install — every shard gets the new ring at epoch E with
//     mode "transition" and the previous name list. A shard then accepts
//     an id if it owns it under either ring (dual-ownership), and the
//     router fences mutations to moving ids (fail-fast 503) so the
//     export stream below is a frozen, authoritative snapshot of them.
//  2. import — each gaining shard journals a MigImportBegin mark, pulls
//     GET /migrate/export from the losing shard, applies every user
//     through its own WAL (append-before-apply, exactly like a client
//     PUT), and journals MigImportDone. A crash anywhere in between
//     recovers with the begin mark un-matched: the driver's retry
//     re-imports, and re-applying the same frozen stream is idempotent —
//     no user lost, none duplicated.
//  3. cutover — every shard gets the same epoch E re-installed with mode
//     "stable"; ownership flips atomically per shard (the atomic ring
//     pointer swap), the router lifts the fence and routes by the new
//     ring.
//  4. retire — the losing shard tombstones (ordinary WAL-logged deletes)
//     every user the stable ring no longer assigns to it, then journals
//     MigRetireDone. Until retire completes both shards hold the moved
//     users; scatter queries deduplicate by user id, so the transient
//     double-residency is invisible.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/durable"
	"goldfinger/internal/obs"
	"goldfinger/internal/router"
)

const (
	// HeaderOwnerShard names the correct owner of a misrouted id on a 421
	// response, taken from the shard's installed ring slice.
	HeaderOwnerShard = "X-Owner-Shard"
	// HeaderRingEpoch carries the responding shard's ring epoch on 421s
	// and ring-conflict 409s, so the caller can tell stale routing from
	// genuine drift.
	HeaderRingEpoch = "X-Ring-Epoch"
)

// Ring modes.
const (
	RingStable     = "stable"
	RingTransition = "transition"
)

// Migration metric names.
const (
	metricRingInstalls  = "ring.installs.total"
	metricRingEpoch     = "ring.epoch"
	metricMigImports    = "migrate.import.total"
	metricMigImported   = "migrate.imported.users"
	metricMigExports    = "migrate.export.total"
	metricMigRetired    = "migrate.retired.users"
	metricMigResumed    = "migrate.resumed.total"
	metricMigImportSecs = "migrate.import.seconds"
)

// RingInfo is one placement-ring epoch as pushed by the router (POST
// /ring) or configured statically at process start. Names is the full
// ordered shard list the consistent-hash ring is built from; PrevNames is
// the previous list, required in transition mode to widen acceptance to
// both rings while a migration streams.
type RingInfo struct {
	Epoch     uint64   `json:"epoch"`
	Mode      string   `json:"mode"` // RingStable or RingTransition
	Names     []string `json:"names"`
	PrevNames []string `json:"prev_names,omitempty"`
	// Replicas is the virtual-node count per shard; 0 means the ring
	// default. Must match the router's setting or placements disagree.
	Replicas int `json:"replicas,omitempty"`
}

// ringView is an installed RingInfo with its placements materialized.
// Immutable; swapped atomically on install.
type ringView struct {
	info  RingInfo
	self  string
	place *router.Placement
	prev  *router.Placement // non-nil only in transition mode
}

func (v *ringView) ownerOf(id string) string {
	return v.place.OwnerName(v.info.Names, id)
}

// acceptsID decides whether this shard serves the id, and names the
// owning shard (plus the ring epoch) when a ring is installed so the 421
// path can say who should have been asked. With no ring installed the
// legacy owns predicate (SetShard) applies; with neither, every id is
// accepted — the single-node default.
func (s *Server) acceptsID(id string) (ok bool, owner string, epoch uint64) {
	if rv := s.ring.Load(); rv != nil {
		owner = rv.ownerOf(id)
		if owner == rv.self {
			return true, owner, rv.info.Epoch
		}
		if rv.prev != nil && rv.prev.OwnerName(rv.info.PrevNames, id) == rv.self {
			// Transition window: still accepting what the old ring gave us
			// (reads route here until cutover; the export stream needs it).
			return true, owner, rv.info.Epoch
		}
		return false, owner, rv.info.Epoch
	}
	if s.owns != nil && !s.owns(id) {
		return false, "", 0
	}
	return true, "", 0
}

// InstallRing validates and installs a placement ring. Same-epoch
// re-installs are accepted (idempotent re-push, and the cutover is the
// same epoch flipping transition→stable); an older epoch is refused.
func (s *Server) InstallRing(info RingInfo) error {
	if len(info.Names) == 0 {
		return errors.New("ring has no shards")
	}
	seen := make(map[string]bool, len(info.Names))
	for _, n := range info.Names {
		if n == "" || seen[n] {
			return fmt.Errorf("ring has duplicate or empty shard name %q", n)
		}
		seen[n] = true
	}
	switch info.Mode {
	case RingStable:
		if len(info.PrevNames) != 0 {
			return errors.New("stable ring must not carry prev_names")
		}
	case RingTransition:
		if len(info.PrevNames) == 0 {
			return errors.New("transition ring needs prev_names")
		}
	default:
		return fmt.Errorf("ring mode must be %q or %q, got %q", RingStable, RingTransition, info.Mode)
	}
	if cur := s.ring.Load(); cur != nil && info.Epoch < cur.info.Epoch {
		return fmt.Errorf("ring epoch %d is older than installed epoch %d", info.Epoch, cur.info.Epoch)
	}
	rv := &ringView{
		info:  info,
		self:  s.shardName,
		place: router.NewPlacement(info.Names, info.Replicas),
	}
	if info.Mode == RingTransition {
		rv.prev = router.NewPlacement(info.PrevNames, info.Replicas)
	}
	s.ring.Store(rv)
	s.obs.Counter(metricRingInstalls).Inc()
	s.obs.Gauge(metricRingEpoch).Set(int64(info.Epoch))
	if s.onRing != nil {
		s.onRing(info)
	}
	return nil
}

// handleRing serves GET (read the installed ring) and POST (install one).
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rv := s.ring.Load()
		if rv == nil {
			httpError(w, http.StatusNotFound, "no ring installed")
			return
		}
		writeJSON(w, http.StatusOK, rv.info)
	case http.MethodPost:
		var info RingInfo
		if err := readJSONBody(w, r, 1<<20, &info); err != nil {
			return
		}
		if cur := s.ring.Load(); cur != nil && info.Epoch < cur.info.Epoch {
			w.Header().Set(HeaderRingEpoch, strconv.FormatUint(cur.info.Epoch, 10))
			httpError(w, http.StatusConflict,
				"ring epoch %d is older than installed epoch %d", info.Epoch, cur.info.Epoch)
			return
		}
		if err := s.InstallRing(info); err != nil {
			httpError(w, http.StatusBadRequest, "bad ring: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"epoch": info.Epoch, "mode": info.Mode})
	default:
		methodNotAllowed(w, "GET, POST", "GET reads the ring, POST installs one")
	}
}

// handleMigrateExport streams every live user the given shard gains under
// the installed ring: a core user table followed by the matching
// fingerprint set. The stream is a consistent snapshot — the router
// fences mutations to moving ids for the whole transfer window, so what
// is streamed here cannot change until cutover.
func (s *Server) handleMigrateExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET", "GET streams the users the requesting shard gains")
		return
	}
	to := r.URL.Query().Get("to")
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if to == "" || err != nil {
		httpError(w, http.StatusBadRequest, "want /migrate/export?epoch=N&to=shard-name")
		return
	}
	rv := s.ring.Load()
	if rv == nil || rv.info.Epoch != epoch {
		if rv != nil {
			w.Header().Set(HeaderRingEpoch, strconv.FormatUint(rv.info.Epoch, 10))
		}
		httpError(w, http.StatusConflict, "export for ring epoch %d but shard has %s", epoch, ringEpochString(rv))
		return
	}

	var ids []string
	var fps []core.Fingerprint
	v := s.view.Load()
	for i := 0; i < v.users.Len(); i++ {
		if v.deleted.At(i) {
			continue
		}
		if id := v.users.At(i); rv.ownerOf(id) == to {
			ids = append(ids, id)
			fps = append(fps, v.corpus.Fingerprint(i))
		}
	}

	s.obs.Counter(metricMigExports).Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Migration-Users", strconv.Itoa(len(ids)))
	if err := core.WriteUserTable(w, ids); err != nil {
		return // client gone; nothing to clean up
	}
	core.WriteFingerprintSet(w, fps)
}

// migrateImportRequest is the POST /migrate/import body.
type migrateImportRequest struct {
	Epoch   uint64 `json:"epoch"`
	From    string `json:"from"`     // losing shard's name
	FromURL string `json:"from_url"` // losing shard's base URL
}

// handleMigrateImport pulls the export stream from the losing shard and
// applies it locally, journaling the handoff so a crash mid-import is
// visible (and resumable) at recovery. Idempotent: re-importing the same
// frozen stream overwrites users with identical data.
func (s *Server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, "POST", "POST pulls and applies a migration stream")
		return
	}
	var req migrateImportRequest
	if err := readJSONBody(w, r, 1<<16, &req); err != nil {
		return
	}
	if req.From == "" || req.FromURL == "" {
		httpError(w, http.StatusBadRequest, "import needs from and from_url")
		return
	}
	rv := s.ring.Load()
	if rv == nil || rv.info.Epoch != req.Epoch || rv.info.Mode != RingTransition {
		// Importing outside the transition window is refused: after cutover
		// this shard may have accepted fresh writes for the moved ids, and
		// an old export stream must never overwrite them.
		if rv != nil {
			w.Header().Set(HeaderRingEpoch, strconv.FormatUint(rv.info.Epoch, 10))
		}
		httpError(w, http.StatusConflict,
			"import wants ring epoch %d in transition, shard has %s", req.Epoch, ringEpochString(rv))
		return
	}
	if !s.importing.CompareAndSwap(false, true) {
		httpError(w, http.StatusConflict, "an import is already streaming")
		return
	}
	defer s.importing.Store(false)
	s.migrating.Store(true)
	defer s.migrating.Store(false)

	start := time.Now()
	if err := s.journalMigration(durable.MigImportBegin, req.Epoch, req.From, 0); err != nil {
		setRetryAfter(w, degradedRetryAfter)
		httpError(w, http.StatusServiceUnavailable, "journaling import begin: %v", err)
		return
	}

	ids, fps, err := pullExport(r.Context(), req.FromURL, req.Epoch, rv.self)
	if err != nil {
		httpError(w, http.StatusBadGateway, "pulling export from %s: %v", req.From, err)
		return
	}
	applied := 0
	pace := newPacer(int(s.migrateRate.Load()))
	for i, id := range ids {
		if fps[i].NumBits() != s.bits {
			httpError(w, http.StatusBadGateway,
				"export stream fingerprint for %q has %d bits, want %d", id, fps[i].NumBits(), s.bits)
			return
		}
		if err := r.Context().Err(); err != nil {
			// Driver gone mid-apply: everything applied so far is durable;
			// the begin mark stays un-matched and the retry resumes.
			httpError(w, statusClientClosedRequest, "import canceled: %v", err)
			return
		}
		if _, err := s.applyPut(id, fps[i]); err != nil {
			setRetryAfter(w, degradedRetryAfter)
			httpError(w, http.StatusServiceUnavailable, "applying migrated user %q: %v", id, err)
			return
		}
		applied++
		pace.tick()
	}
	if err := s.journalMigration(durable.MigImportDone, req.Epoch, req.From, uint32(applied)); err != nil {
		setRetryAfter(w, degradedRetryAfter)
		httpError(w, http.StatusServiceUnavailable, "journaling import done: %v", err)
		return
	}
	s.pendingMig.Store(nil)
	s.obs.Counter(metricMigImports).Inc()
	s.obs.Counter(metricMigImported).Add(int64(applied))
	s.obs.Histogram(metricMigImportSecs, obs.DefWaitBuckets).ObserveSince(start)
	writeJSON(w, http.StatusOK, map[string]any{"imported": applied, "epoch": req.Epoch, "from": req.From})
}

// migrateRetireRequest is the POST /migrate/retire body.
type migrateRetireRequest struct {
	Epoch uint64 `json:"epoch"`
}

// handleMigrateRetire tombstones every live user the installed stable
// ring no longer assigns to this shard. Only legal after cutover —
// retiring while still the owner would discard data. Idempotent: a
// repeat retire finds nothing live to tombstone.
func (s *Server) handleMigrateRetire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, "POST", "POST tombstones handed-off users after cutover")
		return
	}
	var req migrateRetireRequest
	if err := readJSONBody(w, r, 1<<16, &req); err != nil {
		return
	}
	rv := s.ring.Load()
	if rv == nil || rv.info.Epoch != req.Epoch || rv.info.Mode != RingStable {
		if rv != nil {
			w.Header().Set(HeaderRingEpoch, strconv.FormatUint(rv.info.Epoch, 10))
		}
		httpError(w, http.StatusConflict,
			"retire wants stable ring epoch %d, shard has %s", req.Epoch, ringEpochString(rv))
		return
	}

	var targets []string
	v := s.view.Load()
	for i := 0; i < v.users.Len(); i++ {
		if v.deleted.At(i) {
			continue
		}
		if id := v.users.At(i); rv.ownerOf(id) != rv.self {
			targets = append(targets, id)
		}
	}

	retired := 0
	for _, id := range targets {
		// Unknown ids are a no-op: the targets come from the live table, so
		// that only happens on races with concurrent retires.
		if _, err := s.applyDelete(id); err != nil {
			setRetryAfter(w, degradedRetryAfter)
			httpError(w, http.StatusServiceUnavailable, "retiring user %q: %v", id, err)
			return
		}
		retired++
	}
	if err := s.journalMigration(durable.MigRetireDone, req.Epoch, "", uint32(retired)); err != nil {
		setRetryAfter(w, degradedRetryAfter)
		httpError(w, http.StatusServiceUnavailable, "journaling retire: %v", err)
		return
	}
	s.obs.Counter(metricMigRetired).Add(int64(retired))
	writeJSON(w, http.StatusOK, map[string]any{"retired": retired, "epoch": req.Epoch})
}

// journalMigration appends one handoff mark to the WAL (no-op without a
// store). Marks carry the current mutation counter without advancing it.
func (s *Server) journalMigration(phase durable.MigPhase, epoch uint64, peer string, users uint32) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.logMutation(durable.Record{
		Kind:   durable.KindMigration,
		MutSeq: s.view.Load().mutSeq,
		Mig:    &durable.MigrationMark{Phase: phase, Epoch: epoch, Peer: peer, Users: users},
	})
}

// pullExport fetches and decodes one export stream.
func pullExport(ctx context.Context, baseURL string, epoch uint64, self string) ([]string, []core.Fingerprint, error) {
	url := fmt.Sprintf("%s/migrate/export?epoch=%d&to=%s", baseURL, epoch, self)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, fmt.Errorf("export answered %d: %s", resp.StatusCode, string(body))
	}
	ids, err := core.ReadUserTable(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding export user table: %w", err)
	}
	fps, err := core.ReadFingerprintSet(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding export fingerprints: %w", err)
	}
	if len(ids) != len(fps) {
		return nil, nil, fmt.Errorf("export stream has %d ids but %d fingerprints", len(ids), len(fps))
	}
	return ids, fps, nil
}

// pacer rate-limits import applies to a users/second cap.
type pacer struct {
	interval time.Duration
	next     time.Time
}

func newPacer(perSec int) *pacer {
	if perSec <= 0 {
		return &pacer{}
	}
	return &pacer{interval: time.Second / time.Duration(perSec), next: time.Now()}
}

func (p *pacer) tick() {
	if p.interval <= 0 {
		return
	}
	p.next = p.next.Add(p.interval)
	if d := time.Until(p.next); d > 0 {
		time.Sleep(d)
	}
}

// readJSONBody decodes a bounded JSON request body, writing the HTTP
// error itself on failure.
func readJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return err
	}
	return nil
}

func ringEpochString(rv *ringView) string {
	if rv == nil {
		return "no ring installed"
	}
	return fmt.Sprintf("epoch %d (%s)", rv.info.Epoch, rv.info.Mode)
}
