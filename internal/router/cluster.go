package router

// The router's dynamic side: peer membership, live ring changes, and the
// migration driver that turns a ring delta into WAL-backed data movement.
//
// The router is the membership authority (hub-and-spoke: shards join here
// and learn the ring from here). A ring change runs this state machine,
// serialized in a single reconcile goroutine:
//
//   stable(E) ──ΔMembership──▶ transition(E+1) ──imports done──▶ stable(E+1) ──▶ retire
//
// During transition(E+1):
//   - reads of moved ids route to the OLD owner (it still has everything),
//     falling back to the gainer if the old owner fails mid-handoff;
//   - mutations of moved ids are fenced — fail-fast 503 with Retry-After —
//     so the export stream the gainer pulls is a frozen, authoritative
//     snapshot and an acked write can never race the copy;
//   - /query scatters over the union of both rings' shards and the merge
//     deduplicates by user id, so coverage never has a hole.
//
// Cutover is an atomic pointer swap of the router's ringState; the fence
// lifts and routing follows the new ring in the same instant. Retire (the
// loser tombstoning its handed-off users) runs after cutover and is pure
// cleanup — until it lands, moved users exist on both shards, which the
// query-path dedup already tolerates.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// Cluster / migration metric names.
const (
	metricDrift        = "router.placement_drift.total"
	metricFencedWrites = "router.migration.fenced_writes.total"
	metricDualReads    = "router.migration.dual_reads.total"
	metricMigrations   = "router.migration.total"
	metricMigFailed    = "router.migration.failed.total"
	metricMigMovedSecs = "router.migration.seconds"
	metricRingEpoch    = "router.ring.epoch"
)

// Ring modes.
const (
	RingStable     = "stable"
	RingTransition = "transition"
)

// RingInfo is one placement-ring epoch: the JSON body the router pushes to
// every shard's POST /ring, and what a shard process persists to reinstall
// at start. Names is the ordered shard list the consistent-hash ring is
// built from; PrevNames, required in transition mode only, is the previous
// list, so a shard widens acceptance to both rings while a migration
// streams.
type RingInfo struct {
	Epoch     uint64   `json:"epoch"`
	Mode      string   `json:"mode"` // RingStable or RingTransition
	Names     []string `json:"names"`
	PrevNames []string `json:"prev_names,omitempty"`
}

// migState is the in-flight migration attached to a transition ringState.
type migState struct {
	delta      *Delta
	prevNames  []string
	prevShards map[string]*shard // old-ring shard runtimes by name
}

// ringState is one immutable routing epoch: the ring, the shard runtimes
// resolved against it, and (in transition) the migration overlay. The
// router swaps it atomically; every request loads it exactly once.
type ringState struct {
	gen    uint64 // distribution generation: bumps on every install, drives re-push
	epoch  uint64 // ring epoch: bumps once per membership change
	names  []string
	place  *Placement
	shards []*shard // aligned with names
	byName map[string]*shard
	mig    *migState // non-nil while a migration streams
}

func (st *ringState) info() RingInfo {
	m := RingInfo{Epoch: st.epoch, Mode: RingStable, Names: st.names}
	if st.mig != nil {
		m.Mode = RingTransition
		m.PrevNames = st.mig.prevNames
	}
	return m
}

// ownerShard resolves id's owner under the (new) ring.
func (st *ringState) ownerShard(id string) *shard {
	if st.place == nil || len(st.shards) == 0 {
		return nil
	}
	i := st.place.Owner(id)
	if i < 0 || i >= len(st.shards) {
		return nil
	}
	return st.shards[i]
}

// route resolves where a /users request goes. For moved ids during a
// transition: mutations are fenced (fenced=true, no shard), reads go to
// the old owner with the gainer as fallback. Everything else routes by
// the current ring.
func (st *ringState) route(id string, mutation bool) (primary, fallback *shard, fenced bool) {
	if st.mig != nil {
		if from, to, moved := st.mig.delta.Moved(id); moved {
			if mutation {
				return nil, nil, true
			}
			old := st.mig.prevShards[from]
			gainer := st.byName[to]
			if old == nil {
				return gainer, nil, false
			}
			return old, gainer, false
		}
	}
	return st.ownerShard(id), nil, false
}

// reach is every shard that holds users under this epoch: the ring's
// shards plus, during a transition, the old ring's shards not on the new
// ring (a leaving shard still holds its users until retire). It is the
// /query scatter set and what the prober, the ring push, /stats, /healthz
// and build fan-out cover.
func (st *ringState) reach() []*shard {
	if st.mig == nil {
		return st.shards
	}
	out := append([]*shard(nil), st.shards...)
	for name, sh := range st.mig.prevShards {
		if _, stays := st.byName[name]; !stays {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].spec.Name < out[b].spec.Name })
	return out
}

// kickReconcile nudges the reconcile loop without blocking.
func (r *Router) kickReconcile() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// installRing publishes a new ringState and nudges ring distribution.
func (r *Router) installRing(st *ringState) {
	st.gen = r.ringGen.Add(1)
	r.ring.Store(st)
	r.obs.Gauge(metricRingEpoch).Set(int64(st.epoch))
}

// getShard returns the runtime for spec, creating it on first sight. A
// changed URL for a known name is a replacement process: it gets a fresh
// runtime (fresh breaker — the old process's failure history is not the
// new process's).
func (r *Router) getShard(spec ShardSpec) *shard {
	r.shardsMu.Lock()
	defer r.shardsMu.Unlock()
	if sh, ok := r.byName[spec.Name]; ok && sh.spec.URL == spec.URL {
		return sh
	}
	sh := r.newShard(spec)
	r.byName[spec.Name] = sh
	return sh
}

// reconcileLoop is the single driver of ring changes: every kick, it
// compares the member table against the installed ring and runs the
// migration state machine when they differ. One goroutine, so changes
// serialize and a queued join during a migration waits its turn.
func (r *Router) reconcileLoop(ctx context.Context) {
	defer close(r.reconDone)
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.kick:
		}
		// Coalesce kicks that piled up while a migration ran.
		for {
			select {
			case <-r.kick:
				continue
			default:
			}
			break
		}
		if err := r.reconcile(ctx); err != nil && ctx.Err() == nil {
			r.logf("router: ring reconcile: %v", err)
		}
	}
}

// memberSpecs returns the member table sorted by name.
func (r *Router) memberSpecs() []ShardSpec {
	r.shardsMu.Lock()
	defer r.shardsMu.Unlock()
	specs := make([]ShardSpec, 0, len(r.members))
	for name, url := range r.members {
		specs = append(specs, ShardSpec{Name: name, URL: url})
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].Name < specs[b].Name })
	return specs
}

// reconcile makes the installed ring match the member table.
func (r *Router) reconcile(ctx context.Context) error {
	specs := r.memberSpecs()
	names := specNames(specs)

	cur := r.ring.Load()
	sameNames := equalStrings(cur.names, names)
	if sameNames {
		// No membership change — but a member may be a replacement process
		// (same name, new URL). Re-resolve runtimes; if any differ, reinstall
		// the same epoch with the new runtimes and re-push.
		changed := false
		shards := make([]*shard, len(specs))
		for i, spec := range specs {
			shards[i] = r.getShard(spec)
			if i < len(cur.shards) && shards[i] != cur.shards[i] {
				changed = true
			}
		}
		if !changed {
			return nil
		}
		st := &ringState{epoch: cur.epoch, names: names, place: cur.place, shards: shards, byName: shardMap(shards)}
		r.installRing(st)
		r.pushRingAll(ctx, st)
		return nil
	}
	return r.changeRing(ctx, cur, specs, names)
}

// changeRing runs one full migration: transition install, per-pair
// imports, cutover, retire.
func (r *Router) changeRing(ctx context.Context, cur *ringState, specs []ShardSpec, names []string) error {
	epoch := cur.epoch + 1
	shards := make([]*shard, len(specs))
	for i, spec := range specs {
		shards[i] = r.getShard(spec)
	}
	place := NewPlacement(names, 0)
	next := &ringState{epoch: epoch, names: names, place: place, shards: shards, byName: shardMap(shards)}

	// An empty old or new ring moves nothing: there is no one to stream
	// from (first join) or to (last leave). Install stable directly.
	delta := ComputeDelta(cur.names, names)
	if len(cur.names) == 0 || len(names) == 0 || len(delta.Moves) == 0 {
		r.installRing(next)
		r.pushRingAll(ctx, next)
		r.logf("router: ring epoch %d installed (%d shards, no data movement)", epoch, len(names))
		return nil
	}

	r.logf("router: ring epoch %d: migrating %d segment(s) across %d pair(s): %v",
		epoch, len(delta.Segments), len(delta.Moves), delta.Moves)
	start := time.Now()
	r.obs.Counter(metricMigrations).Inc()

	// 1. Transition: dual-ownership on the shards, fence + dual-read here.
	next.mig = &migState{delta: delta, prevNames: cur.names, prevShards: shardMap(cur.shards)}
	r.installRing(next)
	r.pushRingAll(ctx, next)

	// 2. Imports, one per (from,to) pair. Retried until the gainer answers
	// 200 — a gainer that crashes mid-stream recovers (its WAL holds the
	// un-matched import-begin mark), rejoins, gets the transition ring
	// re-pushed, and the retry re-pulls the same frozen stream.
	importFailed := map[string]bool{} // by losing shard: suppresses its retire
	for _, mv := range delta.Moves {
		if err := r.driveImport(ctx, epoch, mv); err != nil {
			importFailed[mv.From] = true
			r.obs.Counter(metricMigFailed).Inc()
			r.logf("router: migration epoch %d: import %s->%s failed permanently: %v (slice stays on %s, not routed — rejoin %s to retry)",
				epoch, mv.From, mv.To, err, mv.From, mv.To)
		}
	}

	// 3. Cutover: drop the migration overlay — fence lifts, routing flips.
	stable := &ringState{epoch: epoch, names: names, place: place, shards: shards, byName: next.byName}
	r.installRing(stable)
	r.pushRingAll(ctx, stable)

	// 4. Retire each loser whose exports all landed. Pure cleanup: until it
	// runs, moved users live on both shards and query dedup hides it.
	for _, mv := range delta.Moves {
		if importFailed[mv.From] {
			continue
		}
		if done := r.retired[mv.From]; done == epoch {
			continue // this loser already retired at this epoch (multiple gainers)
		}
		if err := r.driveRetire(ctx, epoch, mv.From); err != nil {
			r.logf("router: migration epoch %d: retire of %s failed: %v (harmless duplicates remain)", epoch, mv.From, err)
		} else {
			r.retired[mv.From] = epoch
		}
	}
	r.obs.Histogram(metricMigMovedSecs, nil).ObserveSince(start)
	r.logf("router: ring epoch %d stable after %s", epoch, time.Since(start).Round(time.Millisecond))
	return nil
}

// driveImport tells the gaining shard to pull its slice, retrying with
// backoff until success or the migrate timeout.
func (r *Router) driveImport(ctx context.Context, epoch uint64, mv Move) error {
	deadline := time.Now().Add(r.cfg.migrateTimeout())
	backoff := 200 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Re-resolve both endpoints every attempt: either side may have
		// crashed and rejoined on a new port mid-migration, and /cluster/join
		// refreshes the by-name handles without going through this loop.
		from, okF := r.lookupShard(mv.From)
		to, okT := r.lookupShard(mv.To)
		if !okF || !okT {
			return fmt.Errorf("unknown shard in move %s->%s", mv.From, mv.To)
		}
		body, _ := json.Marshal(map[string]any{"epoch": epoch, "from": mv.From, "from_url": from.spec.URL})
		actx, cancel := context.WithDeadline(ctx, deadline)
		status, respBody, err := r.postJSON(actx, to.spec.URL+"/migrate/import", body)
		cancel()
		switch {
		case err == nil && status == http.StatusOK:
			r.logf("router: migration epoch %d: %s->%s imported: %s", epoch, mv.From, mv.To, bytes.TrimSpace(respBody))
			return nil
		case err != nil:
			lastErr = err
		default:
			lastErr = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(respBody))
		}
		if time.Now().After(deadline) {
			return lastErr
		}
		if attempt == 0 || attempt%8 == 0 {
			r.logf("router: migration epoch %d: import %s->%s retrying: %v", epoch, mv.From, mv.To, lastErr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// driveRetire tells a losing shard to tombstone its handed-off users.
func (r *Router) driveRetire(ctx context.Context, epoch uint64, loser string) error {
	body, _ := json.Marshal(map[string]any{"epoch": epoch})
	deadline := time.Now().Add(15 * time.Second)
	backoff := 200 * time.Millisecond
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh, ok := r.lookupShard(loser)
		if !ok {
			return fmt.Errorf("unknown shard %s", loser)
		}
		// A loser that left the ring is no longer covered by pushRingAll or
		// the prober backfill, yet it must see the stable epoch before it
		// will retire — push to it directly (no-op once acked).
		r.pushRingTo(ctx, sh, r.ring.Load())
		actx, cancel := context.WithDeadline(ctx, deadline)
		status, respBody, err := r.postJSON(actx, sh.spec.URL+"/migrate/retire", body)
		cancel()
		if err == nil && status == http.StatusOK {
			r.logf("router: migration epoch %d: %s retired: %s", epoch, loser, bytes.TrimSpace(respBody))
			return nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(respBody))
		}
		if time.Now().After(deadline) {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (r *Router) lookupShard(name string) (*shard, bool) {
	r.shardsMu.Lock()
	defer r.shardsMu.Unlock()
	sh, ok := r.byName[name]
	return sh, ok
}

// pushRingAll distributes a ringState to every shard it references, one
// parallel best-effort attempt each. Shards that miss it (down, slow) are
// backfilled by the prober, which re-pushes until the shard acks the
// current generation — and by /cluster/join, which pushes synchronously.
func (r *Router) pushRingAll(ctx context.Context, st *ringState) {
	shards := st.reach()
	done := make(chan struct{}, len(shards))
	for _, sh := range shards {
		go func(sh *shard) {
			defer func() { done <- struct{}{} }()
			r.pushRingTo(ctx, sh, st)
		}(sh)
	}
	for range shards {
		<-done
	}
}

// pushRingTo POSTs the ring to one shard and records the acked generation.
func (r *Router) pushRingTo(ctx context.Context, sh *shard, st *ringState) {
	if sh.ringSynced.Load() >= st.gen {
		return
	}
	body, _ := json.Marshal(st.info())
	pctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	status, respBody, err := r.postJSON(pctx, sh.spec.URL+"/ring", body)
	if err != nil || status != http.StatusOK {
		detail := ""
		if err != nil {
			detail = err.Error()
		} else {
			detail = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(respBody))
		}
		r.logf("router: ring push to %s (epoch %d): %s", sh.spec.Name, st.epoch, detail)
		return
	}
	// Another goroutine may have pushed a newer generation concurrently —
	// only ratchet forward.
	for {
		old := sh.ringSynced.Load()
		if old >= st.gen || sh.ringSynced.CompareAndSwap(old, st.gen) {
			return
		}
	}
}

func (r *Router) postJSON(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, respBody, nil
}

// --- cluster HTTP surface ---

// handleClusterJoin registers (or re-registers) a shard process. A brand
// new name triggers a migration; a restart of a known process is a no-op
// beyond re-pushing the current ring so the shard is immediately
// ring-aware again (shards do not persist the ring across a crash).
func (r *Router) handleClusterJoin(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		httpError(w, http.StatusMethodNotAllowed, "POST {name, url} to join")
		return
	}
	var jr ShardSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16)).Decode(&jr); err != nil {
		httpError(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	if jr.Name == "" || jr.URL == "" {
		httpError(w, http.StatusBadRequest, "join needs name and url")
		return
	}
	changed := r.Join(req.Context(), jr.Name, jr.URL)
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   r.ring.Load().epoch,
		"members": specNames(r.memberSpecs()),
		"changed": changed,
	})
}

// Join registers (or re-registers) a shard process programmatically — the
// same operation as POST /cluster/join. Returns whether membership
// changed — the name is new, its URL moved (a restart on a new port), or
// it had left: a change queues a ring transition on the reconcile loop.
// Anything else is a restart of a known process or a heartbeat, which
// gets the current ring re-pushed synchronously so it knows its slice
// before taking traffic (shards do not necessarily persist the ring
// across a crash).
func (r *Router) Join(ctx context.Context, name, url string) bool {
	r.shardsMu.Lock()
	old, member := r.members[name]
	changed := !member || old != url
	r.members[name] = url
	r.shardsMu.Unlock()
	r.logf("router: shard %s joined from %s (membership changed=%v)", name, url, changed)
	if changed {
		// Refresh the by-name handle immediately rather than waiting for the
		// reconcile loop: an in-flight migration driver re-resolves its
		// target per attempt, so a crashed gainer that restarts on a new
		// port becomes reachable without unblocking the reconciler first.
		r.getShard(ShardSpec{Name: name, URL: url})
		r.kickReconcile()
	} else {
		st := r.ring.Load()
		if sh, ok := r.lookupShard(name); ok {
			sh.ringSynced.Store(0) // its in-memory ring died with the old process
			r.pushRingTo(ctx, sh, st)
		}
	}
	return changed
}

// handleClusterLeave marks a clean departure; the reconcile loop migrates
// its slice away (pulling from it — it must stay up until the migration
// completes to keep its data).
func (r *Router) handleClusterLeave(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		httpError(w, http.StatusMethodNotAllowed, "POST {name} to leave")
		return
	}
	var lr struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<16)).Decode(&lr); err != nil {
		httpError(w, http.StatusBadRequest, "bad leave body: %v", err)
		return
	}
	r.shardsMu.Lock()
	_, member := r.members[lr.Name]
	delete(r.members, lr.Name)
	r.shardsMu.Unlock()
	if !member {
		httpError(w, http.StatusNotFound, "%q is not a member", lr.Name)
		return
	}
	r.logf("router: shard %s leaving; migration queued", lr.Name)
	r.kickReconcile()
	writeJSON(w, http.StatusAccepted, map[string]any{"members": specNames(r.memberSpecs())})
}

// handleCluster reports the member table and ring state.
func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := r.ring.Load()
	moves := []Move(nil)
	if st.mig != nil {
		moves = st.mig.delta.Moves
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ring_epoch": st.epoch,
		"ring_mode":  st.info().Mode,
		"ring_names": st.names,
		"migrating":  moves,
		"peers":      r.memberSpecs(),
	})
}

func specNames(specs []ShardSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

func shardMap(shards []*shard) map[string]*shard {
	m := make(map[string]*shard, len(shards))
	for _, sh := range shards {
		m[sh.spec.Name] = sh
	}
	return m
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testShard returns the i-th ring shard — a test accessor kept here so
// tests survive the ringState indirection.
func (r *Router) testShard(i int) *shard { return r.ring.Load().shards[i] }
