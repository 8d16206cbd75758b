package service

// The published serving view and the one place that replaces it.
//
// Readers never assemble state: they load one *view and find the packed
// corpus, the user table, the tombstones, the mutation counter and the
// live graph snapshot of the same instant in it. Writers never mutate a
// published view: applyPut and applyDelete — the only mutation site,
// shared by the HTTP handlers and the migration import/retire paths —
// derive the successor under writeMu and store it when the mutation is
// complete. Everything in a view is paged copy-on-write (internal/cow), so
// the successor shares all pages the mutation did not touch and deriving
// it costs O(rows touched), not O(n).

import (
	"fmt"

	"goldfinger/internal/core"
	"goldfinger/internal/cow"
	"goldfinger/internal/durable"
	"goldfinger/internal/knn"
)

// tableShift fixes 1024 entries per page of the user table and the
// tombstone flags, the row count of a packed-corpus page: the table a
// search consults per scored node stays a few cache lines.
const tableShift = 10

// view is one immutable published state of the server.
type view struct {
	corpus  *core.PackedCorpus // row i is user i's fingerprint, tombstoned or not
	users   cow.View[string]   // dense index → external user id; append-only
	deleted cow.View[bool]     // tombstones, same length as users; a re-upload revives
	dead    int                // number of true entries in deleted
	mutSeq  uint64             // accepted mutations so far; WAL records carry it
	// epoch is the served graph epoch (nil before the first build or
	// recovery); live is its maintainer's snapshot as of mutSeq — or of an
	// earlier sequence number when the epoch lags the state — and nil for
	// epochs without a maintainer.
	epoch *graphEpoch
	live  *knn.OnlineSnapshot
}

// newView returns the empty view of a server for fingerprints of the given
// length.
func newView(bits int) (*view, error) {
	corpus, err := core.NewPackedCorpus(bits, nil)
	if err != nil {
		return nil, err
	}
	return &view{
		corpus:  corpus,
		users:   cow.New[string](tableShift, 1).Publish(),
		deleted: cow.New[bool](tableShift, 1).Publish(),
	}, nil
}

// graphNodes returns the served graph's node count and the mutation
// sequence number it reflects; (0, 0) without an epoch.
func (v *view) graphNodes() (nodes int, seq uint64) {
	switch {
	case v.live != nil:
		return v.live.NumNodes(), v.live.Seq
	case v.epoch != nil:
		return len(v.epoch.users), v.epoch.mutSeq
	}
	return 0, 0
}

// excluded returns the predicate a graph search must not return nodes of,
// nil when there is none. Tombstoned users must not appear in results;
// they are still traversed — a dead hub keeps bridging its region. A
// current graph's tombstones are the state's; a lagging graph cannot know
// about later deletes, nor the state about nodes the graph alone still
// holds dead, so then either flag excludes.
func (v *view) excluded() func(x int32) bool {
	lagging := v.live != nil && v.live.Seq != v.mutSeq
	if v.dead == 0 && !lagging {
		return nil
	}
	deleted := v.deleted.Pages()
	if !lagging {
		return func(x int32) bool { return deleted[x>>tableShift][x&(1<<tableShift-1)] }
	}
	return func(x int32) bool { return deleted[x>>tableShift][x&(1<<tableShift-1)] || v.live.Dead(x) }
}

// installEpoch publishes ep as the served epoch over the current state.
// Callers hold writeMu.
func (s *Server) installEpoch(ep *graphEpoch) {
	v := *s.view.Load()
	v.epoch, v.live = ep, nil
	if ep.online != nil {
		v.live = ep.online.Snapshot()
	}
	s.view.Store(&v)
}

// logMutation appends one record to the WAL — a put or delete before it is
// applied (an acked mutation is durable, a failed append means the mutation
// never happened), or a migration mark. No-op without a store. Callers
// hold writeMu.
func (s *Server) logMutation(rec durable.Record) error {
	if s.store == nil {
		return nil
	}
	if s.store.Degraded() {
		return durable.ErrDegraded
	}
	if err := s.store.Append(rec); err != nil {
		s.obs.SetText(metricDurableError, err.Error())
		return err
	}
	return nil
}

// applyPut is the PUT mutation: WAL append, then state, then the live
// graph, then one published view. Writers serialize on writeMu so the WAL
// receives records in exactly the order memory applies them — the replay
// skip rule (drop records at or below the snapshot's mutSeq) depends on
// mutSeq being monotone in append order. existing reports whether id was
// already registered (an overwrite or a revival rather than an insert).
func (s *Server) applyPut(id string, fp core.Fingerprint) (existing bool, err error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.view.Load()
	next.mutSeq++
	i, existing := s.index[id]
	if existing {
		next.corpus, err = next.corpus.WithRow(i, fp)
	} else {
		i = next.users.Len()
		next.corpus, err = next.corpus.Append(fp)
	}
	if err != nil {
		return existing, err
	}
	if err := s.logMutation(durable.Record{Kind: durable.KindPut, MutSeq: next.mutSeq, ID: id, FP: fp}); err != nil {
		return existing, err
	}
	switch {
	case !existing:
		users, deleted := next.users.Edit(), next.deleted.Edit()
		users.Append(id)
		deleted.Append(false)
		next.users, next.deleted = users.Publish(), deleted.Publish()
	case next.deleted.At(i): // a re-upload revives a tombstoned user
		next.setDeleted(i, false)
	}
	s.mu.Lock()
	if existing {
		s.fps[i] = fp
	} else {
		s.index[id] = i
		s.fps = append(s.fps, fp)
	}
	s.mu.Unlock()
	s.applyOnline(&next, i, fp, false)
	s.view.Store(&next)
	return existing, nil
}

// applyDelete is the DELETE mutation: the user is tombstoned in the state
// (the table itself is append-only, so indices never shift), removed from
// the live graph epoch, and excluded from every read path. The id stays
// reserved — a later PUT revives it at the same index. Deleting an
// already-deleted user is an accepted, WAL-logged no-op (the mutation
// counter still advances, keeping WAL order dense). known=false means the
// id was never registered and nothing happened.
func (s *Server) applyDelete(id string) (known bool, err error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	i, known := s.index[id]
	if !known {
		return false, nil
	}
	next := *s.view.Load()
	next.mutSeq++
	if err := s.logMutation(durable.Record{Kind: durable.KindDelete, MutSeq: next.mutSeq, ID: id}); err != nil {
		return true, err
	}
	if !next.deleted.At(i) {
		next.setDeleted(i, true)
	}
	s.applyOnline(&next, i, core.Fingerprint{}, true)
	s.view.Store(&next)
	return true, nil
}

// setDeleted flips user i's tombstone in an unpublished view.
func (v *view) setDeleted(i int, dead bool) {
	w := v.deleted.Edit()
	w.Set(i, dead)
	v.deleted = w.Publish()
	if dead {
		v.dead++
	} else {
		v.dead--
	}
}

// applyOnline applies the mutation that produced next (not yet published;
// next.mutSeq is its sequence number, i the user's dense index) to the live
// epoch's graph, logs the resulting delta, and records the maintainer's
// new snapshot in next — keeping the served graph and the on-disk epoch
// warm. Called under writeMu.
//
// If the epoch's maintainer is not exactly one step behind (it lags —
// recovery lost its delta tail, or no online epoch exists yet), the graph
// is left untouched and the lag is counted: the epoch serves stale under
// the pinned-epoch contract until the next build drains and replaces it.
func (s *Server) applyOnline(next *view, i int, fp core.Fingerprint, del bool) {
	if next.live == nil {
		return
	}
	if next.live.Seq != next.mutSeq-1 {
		s.obs.Counter(metricMutStale).Inc()
		return
	}
	online := next.epoch.online
	var (
		op  durable.DeltaOp
		res knn.MutationResult
		err error
	)
	switch {
	case del:
		op = durable.DeltaDelete
		res, err = online.Delete(int32(i))
	case i == next.live.NumNodes():
		op = durable.DeltaInsert
		var nid int32
		nid, res = online.Insert(fp)
		if int(nid) != i {
			// Cannot happen while the tracking invariant holds (node ids are
			// dense user indices); recorded rather than trusted.
			err = fmt.Errorf("online insert assigned node %d, user index is %d", nid, i)
		}
	default:
		op = durable.DeltaOverwrite
		res, err = online.Overwrite(int32(i), fp)
	}
	next.live = online.Snapshot()
	if err != nil {
		// The state applied but the graph did not: the maintainer's sequence
		// now lags permanently and every read path sees the epoch as stale —
		// honest degradation, repaired by the next build.
		s.obs.SetText(metricLastError, "online graph update failed: "+err.Error())
		s.obs.Counter(metricMutStale).Inc()
		return
	}
	s.obs.Counter(metricMutComparisons).Add(int64(res.Comparisons))
	if s.store != nil && !s.store.Degraded() {
		if aerr := s.store.Append(durable.Record{
			Kind:   durable.KindGraphDelta,
			MutSeq: next.mutSeq,
			Delta:  &durable.GraphDelta{Op: op, Node: int32(i), Adj: res.Touched},
		}); aerr != nil {
			// The mutation itself is durable (its put/delete record landed);
			// only the graph delta is lost, so recovery comes back with a
			// colder graph. The store has already flipped degraded.
			s.obs.SetText(metricDurableError, aerr.Error())
		}
	}
}

// captureState flattens the published view — and, when a live epoch exists,
// its graph — for a WAL compaction. State and epoch come from one view, so
// the epoch can never be ahead of the state; when the epoch genuinely lags
// (recovery lost the delta tail) the stale pair is returned as-is.
// Compaction then deletes the sealed deltas the stale epoch never saw,
// which is safe: recovery refuses non-contiguous deltas, so the epoch
// simply recovers stale again rather than warm-and-wrong.
//
// This function deliberately never takes writeMu: Compact invokes it while
// holding the store's snapshot lock, and a build publish holds writeMu
// while saving its epoch (which takes that same snapshot lock) — capture
// waiting on writeMu would deadlock the pair.
func (s *Server) captureState() (durable.State, *durable.EpochData) {
	v := s.view.Load()
	n := v.users.Len()
	st := durable.State{
		Users:   v.users.Flat(),
		FPS:     make([]core.Fingerprint, n),
		Deleted: v.deleted.Flat(),
		MutSeq:  v.mutSeq,
	}
	for i := range st.FPS {
		st.FPS[i] = v.corpus.Fingerprint(i)
	}
	if v.live == nil {
		return st, nil
	}
	return st, v.epochData(st.Users)
}

// epochData flattens the view's live epoch for persistence. users is the
// flat user table of the same view.
func (v *view) epochData(users []string) *durable.EpochData {
	ep := v.epoch
	return &durable.EpochData{
		Seq:       ep.seq,
		K:         ep.k,
		Algorithm: ep.algorithm,
		BuiltAt:   ep.builtAt,
		Duration:  ep.duration,
		Stats:     ep.stats,
		MutSeq:    v.live.Seq,
		Users:     users[:v.live.NumNodes()],
		Graph:     v.live.Graph(),
		Dead:      v.live.DeadFlags(),
	}
}
