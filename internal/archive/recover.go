package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"funcdb/internal/database"
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
	if kind != recSnapshot || base != seq {
		return nil, fmt.Errorf("%w: snapshot %d: header names %d/%d", ErrCorrupt, seq, kind, base)
	}
	rec, err := rd.next()
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	if rec.typ != recSnapshot {
		return nil, fmt.Errorf("%w: snapshot %d: unexpected record type %d", ErrCorrupt, seq, rec.typ)
	}
	db, err := database.DecodeSnapshot(rec.payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot %d: %w", seq, err)
	}
	if db.Version() != seq {
		return nil, fmt.Errorf("%w: snapshot %d claims version %d", ErrCorrupt, seq, db.Version())
	}
	return db, nil
}

// logContents is the decoded state of one log segment.
type logContents struct {
	entries  []loggedTxn
	validLen int64 // byte length of the valid record prefix
	torn     bool  // a truncated final frame was dropped
}

// readLog decodes the log segment based at seq (see scanLog).
func readLog(dir string, seq int64) (logContents, error) {
	var out logContents
	var dec TxnDecoder
	var err error
	out.validLen, out.torn, err = scanLog(dir, seq, func(_ int64, payload []byte) error {
		entry, err := dec.decode(payload)
		out.entries = append(out.entries, entry)
		return err
	})
	if err != nil {
		return logContents{}, err
	}
	return out, nil
}

// scanLog hands the records of the log segment based at seq to fn, in
// order, as the payload bytes the segment holds: every frame must be a
// transaction record whose sequence continues the segment without a gap,
// but nothing past the sequence is decoded. It returns the byte length of
// the valid record prefix and whether a torn final frame was dropped. A
// missing file reads as an empty segment (a crash can separate snapshot
// and log creation); a torn final frame ends the segment cleanly;
// mid-stream checksum failures, and an error from fn, are fatal.
func scanLog(dir string, seq int64, fn func(seq int64, payload []byte) error) (validLen int64, torn bool, err error) {
	f, err := os.Open(filepath.Join(dir, logName(seq)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	rd := &reader{r: f}
	hdr, err := rd.next()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, wire.ErrTruncated) {
			// Header never fully landed: an empty segment with a torn tail.
			return 0, !errors.Is(err, io.EOF), nil
		}
		return 0, false, fmt.Errorf("log %d: %w", seq, err)
	}
	if hdr.typ != recHeader {
		return 0, false, fmt.Errorf("%w: log %d: missing header", ErrCorrupt, seq)
	}
	kind, base, err := decodeHeader(hdr.payload)
	if err != nil {
		return 0, false, fmt.Errorf("log %d: %w", seq, err)
	}
	if kind != recTxn || base != seq {
		return 0, false, fmt.Errorf("%w: log %d: header names %d/%d", ErrCorrupt, seq, kind, base)
	}
	validLen = rd.off
	for next := seq + 1; ; next++ {
		rec, err := rd.next()
		if errors.Is(err, io.EOF) {
			return validLen, false, nil
		}
		if errors.Is(err, wire.ErrTruncated) {
			return validLen, true, nil
		}
		if err != nil {
			return 0, false, fmt.Errorf("log %d: %w", seq, err)
		}
		if rec.typ != recTxn {
			return 0, false, fmt.Errorf("%w: log %d: unexpected record type %d", ErrCorrupt, seq, rec.typ)
		}
		got, n := binary.Varint(rec.payload)
		if n <= 0 {
			return 0, false, fmt.Errorf("log %d: %w: transaction record: bad sequence", seq, ErrCorrupt)
		}
		if got != next {
			return 0, false, fmt.Errorf("%w: log %d: sequence %d where %d expected", ErrCorrupt, seq, got, next)
		}
		if err := fn(got, rec.payload); err != nil {
			return 0, false, fmt.Errorf("log %d: %w", seq, err)
		}
		validLen = rd.off
	}
}

// replay applies logged transactions to db in order, pinning each result
// to the engine's sequence numbering.
func replay(db *database.Database, entries []loggedTxn) (*database.Database, error) {
	for _, e := range entries {
		resp, next, _ := e.Tx.Apply(nil, db, trace.None)
		if resp.Err != nil {
			return nil, fmt.Errorf("archive: replay diverged at seq %d (%s): %w", e.Seq, e.Tx.Kind, resp.Err)
		}
		db = next.AtVersion(e.Seq)
	}
	return db, nil
}

// recovered is the full result of reading an archive directory.
type recovered struct {
	db         *database.Database
	lastSeq    int64
	logBase    int64 // base of the newest log segment
	logLen     int64 // valid byte length of that segment
	logRecords int   // records in that segment
	logTorn    bool
}

// recoverState loads the newest decodable snapshot and replays the log
// segments behind it. Normally that is the newest snapshot and its single
// log suffix; if the newest snapshot is undecodable (bit rot, partial
// write), recovery falls back to an older one and chains forward through
// the intervening segments — every encodable transaction is logged even
// across rotations, so older snapshot + logs reproduce the same stream.
// The one unbridgeable gap is a rotation forced by a custom transaction
// (its body has no wire form; the lost snapshot was its only record),
// which fails with a clear error rather than a silently shortened history.
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
			if snapErr == nil {
				snapErr = fmt.Errorf("%w: segment log-%d has no preceding snapshot", ErrCorrupt, seg)
			}
			return recovered{}, fmt.Errorf(
				"archive: cannot bridge to segment log-%d from version %d (snapshot %d lost with its custom commit): %w",
				seg, db.Version(), seg, snapErr)
		}
		lc, err := readLog(dir, seg)
		if err != nil {
			return recovered{}, err
		}
		db, err = replay(db, lc.entries)
		if err != nil {
			return recovered{}, err
		}
		rec.logBase, rec.logLen, rec.logRecords, rec.logTorn = seg, lc.validLen, len(lc.entries), lc.torn
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
// snapshot at or below seq, plus the log records up to seq. Versions below
// the oldest retained snapshot have been compacted away; versions above
// the last durable sequence were never archived.
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
	lc, err := readLog(dir, base)
	if err != nil {
		return nil, err
	}
	upTo := seq - base
	if int64(len(lc.entries)) < upTo {
		return nil, fmt.Errorf("archive: version %d not archived (last durable is %d)", seq, base+int64(len(lc.entries)))
	}
	return replay(db, lc.entries[:upTo])
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
// and every logged transaction, in sequence order.
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
		lc, err := readLog(dir, base)
		if err != nil {
			return out, err
		}
		for _, e := range lc.entries {
			if seen[e.Seq] {
				continue
			}
			seen[e.Seq] = true
			detail := e.Tx.Query
			if detail == "" {
				detail = describeTxn(e)
			}
			out = append(out, VersionInfo{Seq: e.Seq, Kind: e.Tx.Kind.String(), Detail: detail, Snapshotted: snapSet[e.Seq]})
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

// describeTxn renders a logged transaction without source text in query
// syntax.
func describeTxn(e loggedTxn) string {
	switch e.Tx.Kind.String() {
	case "insert":
		return fmt.Sprintf("insert %s into %s", e.Tx.Tuple, e.Tx.Rel)
	case "delete":
		return fmt.Sprintf("delete %s from %s", e.Tx.Key, e.Tx.Rel)
	case "create":
		return fmt.Sprintf("create %s using %s", e.Tx.Rel, e.Tx.Rep)
	default:
		return e.Tx.Kind.String() + " " + e.Tx.Rel
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
	return removed, nil
}
