package archive

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/wire"
)

// dirState is the parsed contents of an archive directory.
type dirState struct {
	snaps []int64 // base sequences of snapshot files, ascending
	logs  []int64 // base sequences of log segments, ascending
}

// scanDir parses the archive file names in dir. A missing directory is an
// empty archive, not an error.
func scanDir(dir string) (dirState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return dirState{}, nil
		}
		return dirState{}, fmt.Errorf("archive: %w", err)
	}
	var st dirState
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".fdba") {
			continue
		}
		base := strings.TrimSuffix(name, ".fdba")
		switch {
		case strings.HasPrefix(base, "snap-"):
			if seq, err := strconv.ParseInt(strings.TrimPrefix(base, "snap-"), 10, 64); err == nil {
				st.snaps = append(st.snaps, seq)
			}
		case strings.HasPrefix(base, "log-"):
			if seq, err := strconv.ParseInt(strings.TrimPrefix(base, "log-"), 10, 64); err == nil {
				st.logs = append(st.logs, seq)
			}
		}
	}
	sort.Slice(st.snaps, func(i, j int) bool { return st.snaps[i] < st.snaps[j] })
	sort.Slice(st.logs, func(i, j int) bool { return st.logs[i] < st.logs[j] })
	return st, nil
}

// readSnapshot loads and decodes the snapshot file based at seq.
func readSnapshot(dir string, seq int64) (*database.Database, error) {
	payload, err := snapshotPayload(dir, seq)
	if err != nil {
		return nil, err
	}
	db, err := database.DecodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	if db.Version() != seq {
		return nil, fmt.Errorf("%w: snapshot %d claims version %d", ErrCorrupt, seq, db.Version())
	}
	return db, nil
}

// snapshotPayload reads the snapshot file based at seq and returns its
// record's payload, checked by the frame CRC but not decoded.
func snapshotPayload(dir string, seq int64) ([]byte, error) {
	f, err := os.Open(filepath.Join(dir, snapName(seq)))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	rd := &reader{r: f}
	hdr, err := rd.next()
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	if hdr.typ != recHeader {
		return nil, fmt.Errorf("%w: snapshot %d: missing header", ErrCorrupt, seq)
	}
	kind, base, err := decodeHeader(hdr.payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	if kind != FormSnapshot || base != seq {
		return nil, fmt.Errorf("%w: snapshot %d: header names %d/%d", ErrCorrupt, seq, kind, base)
	}
	rec, err := rd.next()
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	if rec.typ != FormSnapshot {
		return nil, fmt.Errorf("%w: snapshot %d: unexpected record type %d", ErrCorrupt, seq, rec.typ)
	}
	return rec.payload, nil
}

// logScan is what reading one log segment's frames found.
type logScan struct {
	validLen int64 // byte length of the valid record prefix
	torn     bool  // a truncated final frame was dropped
	records  int   // records in the valid prefix
}

// scanLog hands the records of the log segment based at seq to fn, in
// order, as the versions each covers, its form and the payload bytes the
// segment holds: every frame must be a log record whose versions continue
// the segment without a gap, but nothing past a FormRun record's span is
// decoded. A missing file reads as an empty segment (a crash can separate
// snapshot and log creation); a torn final frame ends the segment cleanly;
// mid-stream checksum failures, and an error from fn, are fatal.
func scanLog(dir string, seq int64, fn func(first, last int64, form byte, payload []byte) error) (logScan, error) {
	var sc logScan
	f, err := os.Open(filepath.Join(dir, logName(seq)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return sc, nil
		}
		return sc, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	rd := &reader{r: f}
	hdr, err := rd.next()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, wire.ErrTruncated) {
			// Header never fully landed: an empty segment with a torn tail.
			sc.torn = !errors.Is(err, io.EOF)
			return sc, nil
		}
		return sc, fmt.Errorf("log %d: %w", seq, err)
	}
	if hdr.typ != recHeader {
		return sc, fmt.Errorf("%w: log %d: missing header", ErrCorrupt, seq)
	}
	kind, base, err := decodeHeader(hdr.payload)
	if err != nil {
		return sc, fmt.Errorf("log %d: %w", seq, err)
	}
	if (kind != FormRun && kind != FormLegacy) || base != seq {
		return sc, fmt.Errorf("%w: log %d: header names %d/%d", ErrCorrupt, seq, kind, base)
	}
	sc.validLen = rd.off
	for next := seq + 1; ; {
		rec, err := rd.next()
		if errors.Is(err, io.EOF) {
			return sc, nil
		}
		if errors.Is(err, wire.ErrTruncated) {
			sc.torn = true
			return sc, nil
		}
		if err != nil {
			return logScan{}, fmt.Errorf("log %d: %w", seq, err)
		}
		first, last, err := recordSpan(rec.typ, rec.payload)
		if err != nil {
			return logScan{}, fmt.Errorf("log %d: %w", seq, err)
		}
		if first != next {
			return logScan{}, fmt.Errorf("%w: log %d: version %d where %d expected", ErrCorrupt, seq, first, next)
		}
		if err := fn(first, last, rec.typ, rec.payload); err != nil {
			return logScan{}, fmt.Errorf("log %d: %w", seq, err)
		}
		next = last + 1
		sc.validLen = rd.off
		sc.records++
	}
}

// recordSpan returns the versions a log record covers.
func recordSpan(form byte, payload []byte) (first, last int64, err error) {
	switch form {
	case FormRun:
		first, last, _, err = runSpan(payload)
		return first, last, err
	case FormLegacy:
		r, err := decodeLegacy(nil, payload)
		return r.First, r.First, err
	default:
		return 0, 0, fmt.Errorf("%w: unexpected record type %d", ErrCorrupt, form)
	}
}

// replayLog replays the log segment based at seg onto db, the version the
// segment follows, through version upTo (every record when upTo < 0): a
// record of one write through the transaction it carries, a longer insert
// run with one relation.UpsertRun, and a run that upTo cuts through only up
// to upTo.
func replayLog(dir string, seg int64, db *database.Database, upTo int64) (*database.Database, logScan, error) {
	var dec Decoder
	sc, err := scanLog(dir, seg, func(first, last int64, form byte, payload []byte) error {
		if upTo >= 0 && first > upTo {
			return nil
		}
		r, err := dec.Decode(form, payload)
		if err != nil {
			return err
		}
		if upTo >= 0 && last > upTo {
			r.Tuples = r.Tuples[:upTo-first+1]
		}
		db, err = Replay(db, &r)
		return err
	})
	return db, sc, err
}

// Replay applies one log record to db — a run of several inserts as one
// relation.UpsertRun, a custom commit's effect as one UpsertRun and its
// deletes per relation, any other record as the write it carries — and pins
// the result to the record's last version: the function from one version of
// the database to the next that recovery, time travel and every replication
// mirror apply a log with. It fails when the record does not apply to db
// (a relation it names is missing, or one it creates exists).
func Replay(db *database.Database, r *Record) (*database.Database, error) {
	var err error
	switch {
	case r.Kind == core.KindCustom:
		for _, e := range r.Effects {
			rel, ok := db.RelationFast(e.Rel)
			if !ok {
				err = fmt.Errorf("%w: %q", database.ErrNoRelation, e.Rel)
				break
			}
			rel = relation.UpsertRun(nil, rel, e.Upserts)
			for _, k := range e.Deletes {
				rel, _, _ = rel.Delete(nil, k, trace.None)
			}
			db, _, _ = db.ReplaceRelation(nil, e.Rel, rel, trace.None)
		}
	case r.Count() > 1:
		rel, ok := db.RelationFast(r.Rel)
		if !ok {
			err = fmt.Errorf("%w: %q", database.ErrNoRelation, r.Rel)
		} else {
			db, _, err = db.ReplaceRelation(nil, r.Rel, relation.UpsertRun(nil, rel, r.Tuples), trace.None)
		}
	default:
		var resp core.Response
		resp, db, _ = r.Txn(0).Apply(nil, db, trace.None)
		err = resp.Err
	}
	if err != nil {
		return nil, fmt.Errorf("archive: replay diverged at versions %d..%d (%s): %w", r.First, r.Last(), r.Kind, err)
	}
	return db.AtVersion(r.Last()), nil
}

// recovered is the full result of reading an archive directory.
type recovered struct {
	db      *database.Database
	lastSeq int64
	logBase int64 // base of the newest log segment
	logLen  int64 // valid byte length of that segment
	logTorn bool
}

// recoverState loads the newest decodable snapshot and replays the log
// segments behind it. Normally that is the newest snapshot and its single
// log suffix; if the newest snapshot is undecodable (bit rot, partial
// write), recovery falls back to an older one and chains forward through
// the intervening segments — every commit is logged even across
// rotations, so older snapshot + logs reproduce the same stream. A segment
// that does not start at the version recovered so far is corrupt: recovery
// fails rather than return a silently shortened history.
func recoverState(dir string) (recovered, error) {
	st, err := scanDir(dir)
	if err != nil {
		return recovered{}, err
	}
	if len(st.snaps) == 0 {
		return recovered{}, fmt.Errorf("%w: %s", ErrNoArchive, dir)
	}
	base := int64(-1)
	var db *database.Database
	var snapErr error
	for i := len(st.snaps) - 1; i >= 0; i-- {
		d, err := readSnapshot(dir, st.snaps[i])
		if err == nil {
			base, db = st.snaps[i], d
			break
		}
		if snapErr == nil {
			snapErr = err // report the newest failure
		}
	}
	if base < 0 {
		return recovered{}, fmt.Errorf("archive: no decodable snapshot: %w", snapErr)
	}

	// Chain forward: the segment based at the snapshot, then any later
	// segments, each picking up exactly where the previous left off.
	rec := recovered{db: db, logBase: base}
	first := true
	for _, seg := range st.logs {
		if seg < base {
			continue // pre-snapshot history: time travel only
		}
		if seg != db.Version() {
			return recovered{}, fmt.Errorf("%w: segment log-%d does not start at recovered version %d", ErrCorrupt, seg, db.Version())
		}
		var sc logScan
		if db, sc, err = replayLog(dir, seg, db, -1); err != nil {
			return recovered{}, err
		}
		rec.logBase, rec.logLen, rec.logTorn = seg, sc.validLen, sc.torn
		first = false
	}
	if first {
		// No segment at or after the snapshot (crash between snapshot and
		// log creation): the snapshot alone is the durable state.
		rec.logBase = base
	}
	rec.db = db
	rec.lastSeq = db.Version()
	return rec, nil
}

// Recover rebuilds the last durable version from dir without opening the
// archive for appending: newest snapshot + log suffix, replayed through
// the translated transactions.
func Recover(dir string) (*database.Database, error) {
	rec, err := recoverState(dir)
	if err != nil {
		return nil, err
	}
	return rec.db, nil
}

// VersionAt materializes the on-disk version numbered seq: the newest
// snapshot at or below seq, plus the log records up to seq — of a run that
// seq falls inside, its prefix. Versions below the oldest retained snapshot
// have been compacted away; versions above the last durable sequence were
// never archived.
func VersionAt(dir string, seq int64) (*database.Database, error) {
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(st.snaps) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoArchive, dir)
	}
	base := int64(-1)
	for _, s := range st.snaps {
		if s <= seq {
			base = s
		}
	}
	if base < 0 {
		return nil, fmt.Errorf("archive: version %d predates the oldest snapshot (%d); compacted away", seq, st.snaps[0])
	}
	db, err := readSnapshot(dir, base)
	if err != nil {
		return nil, err
	}
	if base == seq {
		return db, nil
	}
	if db, _, err = replayLog(dir, base, db, seq); err != nil {
		return nil, err
	}
	if db.Version() != seq {
		return nil, fmt.Errorf("archive: version %d not archived (last durable is %d)", seq, db.Version())
	}
	return db, nil
}

// VersionInfo describes one element of the on-disk version stream.
type VersionInfo struct {
	// Seq is the version's sequence number.
	Seq int64
	// Kind is what produced it: "snapshot" or a transaction verb.
	Kind string
	// Detail is a human-readable description (query text, tuple counts).
	Detail string
	// Snapshotted reports whether a full snapshot exists at this version.
	Snapshotted bool
}

// Versions lists the durable version stream oldest-first: every snapshot
// and every logged version — each version of a run on its own — in
// sequence order.
func Versions(dir string) ([]VersionInfo, error) {
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(st.snaps) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoArchive, dir)
	}
	snapSet := make(map[int64]bool, len(st.snaps))
	for _, s := range st.snaps {
		snapSet[s] = true
	}
	var out []VersionInfo
	seen := make(map[int64]bool)
	for _, base := range st.snaps {
		if !seen[base] {
			seen[base] = true
			db, err := readSnapshot(dir, base)
			detail := ""
			if err != nil {
				detail = "undecodable: " + err.Error()
			} else {
				detail = fmt.Sprintf("%d relations, %d tuples", len(db.RelationNames()), db.TotalTuples())
			}
			out = append(out, VersionInfo{Seq: base, Kind: "snapshot", Detail: detail, Snapshotted: true})
		}
		var dec Decoder
		_, err := scanLog(dir, base, func(first, last int64, form byte, payload []byte) error {
			r, err := dec.Decode(form, payload)
			if err != nil {
				return err
			}
			for v := first; v <= last; v++ {
				if seen[v] {
					continue
				}
				seen[v] = true
				out = append(out, VersionInfo{Seq: v, Kind: r.Kind.String(), Detail: describe(&r, int(v-first)), Snapshotted: snapSet[v]})
			}
			return nil
		})
		if err != nil {
			return out, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		// A snapshot entry for the same seq sorts after the transaction
		// that produced it.
		return out[i].Kind != "snapshot"
	})
	return out, nil
}

// describe renders the i-th version of a record from its structure, since
// records carry no source text: a write in query syntax, a custom commit as
// its effect on each relation it changed — "custom R +2 -1": two tuples
// inserted or replaced, one key deleted.
func describe(r *Record, i int) string {
	if r.Kind != core.KindCustom {
		return describeTxn(r.Txn(i))
	}
	var b strings.Builder
	b.WriteString("custom")
	for j, e := range r.Effects {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s +%d -%d", e.Rel, len(e.Upserts), len(e.Deletes))
	}
	if len(r.Effects) == 0 {
		b.WriteString(" (no change)")
	}
	return b.String()
}

// describeTxn renders a logged write in query syntax.
func describeTxn(tx core.Transaction) string {
	switch tx.Kind {
	case core.KindInsert:
		return fmt.Sprintf("insert %s into %s", tx.Tuple, tx.Rel)
	case core.KindDelete:
		return fmt.Sprintf("delete %s from %s", tx.Key, tx.Rel)
	case core.KindCreate:
		return fmt.Sprintf("create %s using %s", tx.Rel, tx.Rep)
	default:
		return tx.Kind.String() + " " + tx.Rel
	}
}

// Compact removes snapshots and log segments older than the newest
// snapshot, returning the removed file names. The newest snapshot plus its
// log suffix fully determine the current version; older pairs only serve
// time travel, which compaction trades for space (the paper's Section 3.3
// garbage collection, applied to the durable stream). The archive must not
// be open for appending.
func Compact(dir string) ([]string, error) {
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(st.snaps) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoArchive, dir)
	}
	newest := st.snaps[len(st.snaps)-1]
	// Refuse to drop history the newest snapshot cannot stand in for.
	if _, err := readSnapshot(dir, newest); err != nil {
		return nil, fmt.Errorf("archive: compact: newest snapshot unreadable, refusing: %w", err)
	}
	var removed []string
	for _, s := range st.snaps[:len(st.snaps)-1] {
		name := snapName(s)
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("archive: compact: %w", err)
		}
		removed = append(removed, name)
	}
	for _, s := range st.logs {
		if s >= newest {
			continue
		}
		name := logName(s)
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("archive: compact: %w", err)
		}
		removed = append(removed, name)
	}
	if len(removed) > 0 {
		if err := syncDir(dir); err != nil {
			return removed, fmt.Errorf("archive: compact: %w", err)
		}
	}
	return removed, nil
}
