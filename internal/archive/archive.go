package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/metrics"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// ErrNoArchive reports a directory with no archive in it.
var ErrNoArchive = errors.New("archive: no archive in directory")

// ErrExists reports creating an archive where one is already present.
var ErrExists = errors.New("archive: archive already present")

// ErrLogTrimmed reports a subscription starting below the retained log
// whose oldest segment's base snapshot is missing or unreadable: nothing
// the archive still holds can bring the subscriber up to its log, so
// retrying cannot help. The sentinel crosses the wire by message text,
// which is why the text is stable.
var ErrLogTrimmed = errors.New("archive: no readable snapshot at the retained log's base")

// ErrAheadOfLog reports a subscription starting beyond the archive's last
// durable version: the subscriber holds versions this archive does not,
// which only a lost disk can cause once records ship from the flush. The
// subscriber must start over from below the log floor. Like ErrLogTrimmed,
// it crosses the wire by message text, which is why the text is stable.
var ErrAheadOfLog = errors.New("archive: subscription starts beyond the log's last durable version")

// config collects archive options.
type config struct {
	snapshotEvery int
	fsync         bool
	metrics       *metrics.Archive
}

// Option configures an archive.
type Option func(*config)

// SnapshotEvery takes a full snapshot (and starts a fresh log segment)
// once n versions have been logged since the last one (a run counts each
// of its versions; the snapshot is taken at the end of the commit that
// reaches n). Snapshots bound recovery replay time and are the granularity
// of Compact; n <= 0 (the default) snapshots only when forced (custom
// transactions, whose bodies have no wire form).
func SnapshotEvery(n int) Option {
	return func(c *config) { c.snapshotEvery = n }
}

// Fsync controls whether every flush is fsynced before its records count
// as durable. Off (the default) survives process crashes — the records are
// in the OS page cache — but not power loss; on survives both at one fsync
// per flush, and syncs the directory whenever the archive creates a file in
// it.
func Fsync(on bool) Option {
	return func(c *config) { c.fsync = on }
}

// WithMetrics records durability metrics into m: appends, bytes, flush
// occupancy, fsync latency, snapshots and recovery duration. Nil (the
// default) records nothing and costs nothing.
func WithMetrics(m *metrics.Archive) Option {
	return func(c *config) { c.metrics = m }
}

// Archive is an open, appendable archive directory. One writer at a time;
// methods are safe for concurrent use within a process.
//
// Append only frames records into a buffer; Flush writes the buffer — one
// write, plus one fsync under Fsync(true) — and only then hands its records
// to log-tail subscribers. A store flushes once per engine notifier batch
// (core.WithCommitFlush), so everything appended while one flush runs lands
// in the next: group commit with no timer.
type Archive struct {
	mu        sync.Mutex
	dir       string
	cfg       config
	log       *os.File
	logBase   int64  // sequence of the snapshot the open log segment follows
	lastSeq   int64  // newest accepted sequence number (buffered or durable)
	sinceSnap int    // versions logged since the last snapshot
	failed    error  // sticky first failure; appends refuse after it
	buf       []byte // framed records awaiting the flush's one write (+fsync)
	bufVers   int    // versions the records in buf cover

	// Log-tail subscriptions (SubscribeTxns): each registered function
	// receives every log record, in commit order, under a.mu, once the
	// flush has made it durable. nextSubID keys cancellation. recs indexes
	// the records in buf for them — filled only while a subscription is
	// registered, and reused flush to flush.
	tails     map[uint64]TailFunc
	nextSubID uint64
	recs      []bufRecord

	// Traced commits awaiting the flush: each entry turns into a
	// group-commit-fsync span when flushLocked lands the batch. Empty
	// whenever tracing is off — appending costs nothing untraced.
	pendingTr []pendingTrace
}

// bufRecord locates one buffered log record for the tails: the versions it
// covers, its commit's trace context and its payload's span in buf.
type bufRecord struct {
	first, last int64
	ctx         reqtrace.Ctx
	start, end  int
}

// pendingTrace is one traced commit awaiting the flush: the trace
// handle and the buffering instant the fsync span starts at.
type pendingTrace struct {
	t  *reqtrace.T
	at int64 // unix nanoseconds
}

func snapName(seq int64) string { return fmt.Sprintf("snap-%016d.fdba", seq) }
func logName(seq int64) string  { return fmt.Sprintf("log-%016d.fdba", seq) }

// Exists reports whether dir holds an archive.
func Exists(dir string) bool {
	st, err := scanDir(dir)
	return err == nil && len(st.snaps) > 0
}

// Create initializes a new archive in dir (created if absent) whose first
// snapshot is the given initial version. It fails with ErrExists if dir
// already holds an archive.
func Create(dir string, initial *database.Database, opts ...Option) (*Archive, error) {
	a := &Archive{dir: dir}
	for _, opt := range opts {
		opt(&a.cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if a.cfg.fsync {
		// dir's own entry, which MkdirAll, or the caller just before,
		// may have made.
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
	}
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if len(st.snaps) > 0 || len(st.logs) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrExists, dir)
	}
	if err := a.writeSnapshot(initial); err != nil {
		return nil, err
	}
	return a, nil
}

// Open opens an existing archive for appending and returns it together
// with the recovered current version (newest snapshot + log suffix). A
// torn final record — a crash mid-append — is truncated away so the log is
// clean before new commits land behind it.
func Open(dir string, opts ...Option) (*Archive, *database.Database, error) {
	a := &Archive{dir: dir}
	for _, opt := range opts {
		opt(&a.cfg)
	}
	var recoverStart time.Time
	if a.cfg.metrics != nil {
		recoverStart = time.Now()
	}
	rec, err := recoverState(dir)
	if err != nil {
		return nil, nil, err
	}
	if rec.logLen == 0 {
		// The log segment never made it to disk (crash between snapshot
		// and log creation): start it now.
		if err := a.startLog(rec.logBase); err != nil {
			return nil, nil, fmt.Errorf("archive: %w", err)
		}
	} else {
		logPath := filepath.Join(dir, logName(rec.logBase))
		if rec.logTorn {
			if err := os.Truncate(logPath, rec.logLen); err != nil {
				return nil, nil, fmt.Errorf("archive: truncating torn log tail: %w", err)
			}
		}
		f, err := os.OpenFile(logPath, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("archive: %w", err)
		}
		if _, err := f.Seek(rec.logLen, 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("archive: %w", err)
		}
		a.log, a.logBase = f, rec.logBase
	}
	a.lastSeq = rec.lastSeq
	a.sinceSnap = int(rec.lastSeq - rec.logBase)
	if a.cfg.metrics != nil {
		a.cfg.metrics.Recovered(time.Since(recoverStart))
	}
	return a, rec.db, nil
}

// Append records one committed write, or one insert run. Encodable commits
// become log records — a run one record, or one per stretch of it under one
// origin's consecutive sequence numbers — framed into the buffer the next
// Flush writes; custom transactions (no record form) force a full snapshot
// of the version they produced. It is the body of the core.CommitObserver
// hook.
func (a *Archive) Append(c core.Commit) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed != nil {
		return a.failed
	}
	if err := a.append(c); err != nil {
		a.failed = err
		return err
	}
	a.lastSeq = c.Seq
	return nil
}

func (a *Archive) append(c core.Commit) error {
	if a.log == nil {
		// Closed: refuse rather than buffer into a dead batch.
		return fmt.Errorf("archive: append after Close (seq %d)", c.Seq)
	}
	if !encodable(c.Tx) {
		// A snapshot rotates the log; the pending batch must land in the
		// old segment first.
		if err := a.flushLocked(); err != nil {
			return err
		}
		return a.writeSnapshot(c.Version())
	}
	// The records are framed straight into the batch buffer, and stay
	// there until the flush that writes them. With a log-tail subscriber,
	// each is also indexed, with the trace context of the commit that
	// wrote it, for the flush to hand to the tails once it is durable.
	tr := c.Tx.Trace
	start, nrecs := len(a.buf), len(a.recs)
	buf := a.buf
	versions := int(c.Seq - c.First() + 1)
	var one [1]value.Tuple
	for i := 0; i < versions; {
		r, n := commitRecord(&c, i, &one)
		var payload []byte
		var err error
		if buf, payload, err = appendRunFrame(buf, r); err != nil {
			a.buf, a.recs = buf[:start], a.recs[:nrecs]
			return err
		}
		if len(a.tails) > 0 {
			// payload is buf[off:off+len(payload)], so its capacity
			// places it.
			off := cap(buf) - cap(payload)
			a.recs = append(a.recs, bufRecord{first: r.First, last: r.Last(), ctx: tr.Ctx(), start: off, end: off + len(payload)})
		}
		i += n
	}
	a.buf = buf
	a.bufVers += versions
	a.cfg.metrics.Buffered(versions)
	if tr != nil {
		a.pendingTr = append(a.pendingTr, pendingTrace{t: tr, at: time.Now().UnixNano()})
	}
	a.sinceSnap += versions
	if a.cfg.snapshotEvery > 0 && a.sinceSnap >= a.cfg.snapshotEvery {
		if err := a.flushLocked(); err != nil {
			return err
		}
		return a.writeSnapshot(c.Version())
	}
	return nil
}

// flushLocked writes the pending batch to the log — one write and, with
// Fsync on, one fsync for the whole batch — and then hands its records to
// the log-tail subscribers: a mirror never holds a record this archive
// could still lose. It is the only write of log records. Must hold a.mu. A
// failure is sticky.
func (a *Archive) flushLocked() error {
	if a.failed != nil {
		return a.failed
	}
	if len(a.buf) == 0 {
		return nil
	}
	if a.log == nil {
		a.failed = fmt.Errorf("archive: %d bytes of batched records pending after Close", len(a.buf))
		return a.failed
	}
	if _, err := a.log.Write(a.buf); err != nil {
		a.failed = fmt.Errorf("archive: flush: %w", err)
		return a.failed
	}
	a.cfg.metrics.Flushed(a.bufVers, len(a.buf))
	if a.cfg.fsync {
		if err := a.syncLog(); err != nil {
			a.failed = fmt.Errorf("archive: fsync: %w", err)
			return a.failed
		}
	}
	// The batch is durable: ship it. Subscribers read each payload in the
	// buffer, and may not retain it.
	for _, r := range a.recs {
		for _, fn := range a.tails {
			fn(r.first, r.last, r.ctx, FormRun, a.buf[r.start:r.end])
		}
	}
	a.buf, a.recs = a.buf[:0], a.recs[:0]
	a.bufVers = 0
	// Close the group-commit-fsync span of every traced commit the batch
	// carried. The store's replies wait for this flush, so the span ends
	// before any of them is encoded.
	if len(a.pendingTr) > 0 {
		end := time.Now().UnixNano()
		for _, p := range a.pendingTr {
			p.t.SpanNS(reqtrace.StageGroupCommitFsync, p.at, end-p.at)
		}
		a.pendingTr = a.pendingTr[:0]
	}
	return nil
}

// syncLog fsyncs the open log segment, timing it into the metrics when
// instrumented. The clock reads are gated so an uninstrumented archive
// never pays them.
func (a *Archive) syncLog() error {
	if a.cfg.metrics == nil {
		return a.log.Sync()
	}
	start := time.Now()
	err := a.log.Sync()
	a.cfg.metrics.Fsync(time.Since(start))
	return err
}

// Flush writes the pending batch to the log (and syncs it when Fsync is
// on), then hands its records to the log-tail subscribers. A no-op with an
// empty batch, unless the archive has failed: it reports the sticky failure
// every time, so an engine flushing through it acks nothing after one.
func (a *Archive) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}

// Observer adapts the archive to the engine's post-commit hook. Failures
// are sticky and surface on Close (and Err): once a write cannot be made
// durable, the archive stops advancing rather than recording a gap.
func (a *Archive) Observer() core.CommitObserver {
	return func(c core.Commit) { _ = a.Append(c) }
}

// TailFunc receives one log record from a log-tail subscription: the
// versions first … last it covers (one for a single write, a run's for an
// insert run), the trace context of the commit that wrote it, its form and
// its payload bytes (decode with DecodeRecord or a Decoder; do not mutate or
// retain the slice past the call). A snapshot is instead the whole database
// at version last (first == last): the payloads of any FormSnapshotPart
// records and the FormSnapshot record that ends them, joined, decode with
// database.DecodeSnapshot. A live record carries its commit's context; a
// record read from disk carries the zero context, since contexts are not
// archived. A live record is handed over once the flush has made it
// durable. It runs under the archive mutex — on the flush path — so it
// must only hand the record off (e.g. enqueue a copy), never block or call
// back into the archive.
type TailFunc func(first, last int64, ctx reqtrace.Ctx, form byte, payload []byte)

// SubscribeTxns streams the durable log: every version after after, one
// record at a time, in order, with no gap between the durable history and
// the live tail — the replay and the registration happen under one mutex
// acquisition, after flushing the pending batch. It is the primary side of
// cluster log shipping: the archive's durability log is the replication
// stream, and a record reaches it only once it is durable.
//
// A subscriber beyond the last durable version holds versions this archive
// never made durable: the subscription fails with ErrAheadOfLog.
//
// Catch-up reads the files on disk. A subscriber at or beyond the base of
// the oldest retained segment is handed the records after after. One below
// it — behind a compaction, or an archive that starts at a promotion base —
// is first handed that base's snapshot — the snapshot file's checked
// payload, cut into pieces of at most snapshotPiece bytes: FormSnapshotPart
// records, then a FormSnapshot one — and then the log after the base;
// without a readable snapshot there the subscription fails with
// ErrLogTrimmed. Custom transactions have no record form — they force
// snapshots instead — so they never appear in the stream; a subscriber
// tracking contiguous versions detects the gap and must resynchronize.
// Replayed records are handed out as the bytes the files hold, legacy ones
// included, checked for form and versions but not decoded — except a run
// that after falls inside, whose remaining versions are re-encoded as a
// run of their own (recordAfter). A log record larger than one wire
// LogRecord frame can carry fails the subscription with an error wrapping
// wire.ErrTooLarge. A failed subscription registers nothing, and the
// records it handed out before failing belong to no stream.
//
// cancel unregisters the subscription; it is safe to call more than once
// and after Close.
func (a *Archive) SubscribeTxns(after int64, fn TailFunc) (cancel func(), err error) {
	return a.subscribe(after, wire.MaxLogRecord, fn)
}

// snapshotPiece is the most of a snapshot one catch-up record carries: a
// stream never holds a frame larger than it, whatever the snapshot's size.
const snapshotPiece = 64 << 10

// subscribe is SubscribeTxns with the largest catch-up record it may hand
// out as an argument; snapshot pieces are cut to fit it too.
func (a *Archive) subscribe(after int64, limit int, fn TailFunc) (cancel func(), err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed != nil {
		return nil, a.failed
	}
	if err := a.flushLocked(); err != nil {
		return nil, err
	}
	if after > a.lastSeq {
		return nil, fmt.Errorf("%w: after %d, log ends at %d", ErrAheadOfLog, after, a.lastSeq)
	}
	// Segment bases are snapshot sequences: every record with seq >
	// logs[0] lives in some retained segment, and snap-<logs[0]> stands in
	// for everything up to it.
	st, err := scanDir(a.dir)
	if err != nil {
		return nil, err
	}
	if len(st.logs) == 0 {
		return nil, fmt.Errorf("%w: %s has no log segment", ErrNoArchive, a.dir)
	}
	if base := st.logs[0]; after < base {
		snap, err := snapshotPayload(a.dir, base)
		if err != nil {
			return nil, fmt.Errorf("%w: after %d, oldest segment base %d: %w", ErrLogTrimmed, after, base, err)
		}
		for piece := min(limit, snapshotPiece); len(snap) > piece; snap = snap[piece:] {
			fn(base, base, reqtrace.Ctx{}, FormSnapshotPart, snap[:piece])
		}
		fn(base, base, reqtrace.Ctx{}, FormSnapshot, snap)
		after = base
	}
	for _, seg := range st.logs {
		_, err := scanLog(a.dir, seg, func(first, last int64, form byte, payload []byte) error {
			return recordAfter(after, first, last, form, payload, func(first int64, form byte, payload []byte) error {
				if len(payload) > limit {
					return fmt.Errorf("archive: catch-up record of versions %d..%d is %d bytes, over %d: %w", first, last, len(payload), limit, wire.ErrTooLarge)
				}
				fn(first, last, reqtrace.Ctx{}, form, payload)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
	}
	if a.tails == nil {
		a.tails = make(map[uint64]TailFunc)
	}
	id := a.nextSubID
	a.nextSubID++
	a.tails[id] = fn
	return func() {
		a.mu.Lock()
		delete(a.tails, id)
		a.mu.Unlock()
	}, nil
}

// writeSnapshot durably writes db as snap-<version> and rotates the log to
// a fresh segment based at that version. The snapshot file appears
// atomically (write to temp, fsync, rename), so a crash mid-snapshot
// leaves the previous snapshot + log pair authoritative.
func (a *Archive) writeSnapshot(db *database.Database) error {
	seq := db.Version()
	buf, mark := wire.BeginFrame(headerFrame(FormSnapshot, seq), FormSnapshot)
	buf, err := database.AppendSnapshot(buf, db)
	if err != nil {
		return err
	}
	if buf, err = wire.SealFrame(buf, mark, maxRecordLen); err != nil {
		return fmt.Errorf("archive: snapshot: %w", err)
	}

	path := filepath.Join(a.dir, snapName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("archive: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("archive: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("archive: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("archive: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("archive: snapshot: %w", err)
	}
	a.cfg.metrics.SnapshotWritten(len(buf))

	// Rotate: the new segment holds the versions after this snapshot.
	if a.log != nil {
		if err := a.log.Sync(); err != nil {
			return fmt.Errorf("archive: rotate: %w", err)
		}
		if err := a.log.Close(); err != nil {
			return fmt.Errorf("archive: rotate: %w", err)
		}
	}
	if err := a.startLog(seq); err != nil {
		return fmt.Errorf("archive: rotate: %w", err)
	}
	a.lastSeq = seq
	a.sinceSnap = 0
	return nil
}

// startLog creates log segment seq — the versions after snapshot seq —
// with its file header, and makes it the append target. With Fsync on it
// then syncs the directory: a log record's fsync makes its bytes durable
// but not the segment's name, and without this a power loss could drop a
// new segment with every acknowledged record in it. Under writeSnapshot
// the one sync also covers the snapshot renamed into place just before.
func (a *Archive) startLog(seq int64) error {
	f, err := os.OpenFile(filepath.Join(a.dir, logName(seq)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(headerFrame(FormRun, seq)); err != nil {
		f.Close()
		return err
	}
	if a.cfg.fsync {
		if err := syncDir(a.dir); err != nil {
			f.Close()
			return err
		}
	}
	a.log, a.logBase = f, seq
	return nil
}

// syncDirHook, when a test sets it, sees every directory syncDir syncs.
var syncDirHook func(dir string)

// syncDir fsyncs directory dir, making the entries created, renamed or
// removed in it durable.
func syncDir(dir string) error {
	if syncDirHook != nil {
		syncDirHook(dir)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Snapshot forces a full snapshot of the given version (which must be the
// archive's current version) and rotates the log.
func (a *Archive) Snapshot(db *database.Database) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed != nil {
		return a.failed
	}
	if db.Version() != a.lastSeq {
		return fmt.Errorf("archive: snapshot of version %d, but archive is at %d", db.Version(), a.lastSeq)
	}
	if err := a.flushLocked(); err != nil {
		return err
	}
	if err := a.writeSnapshot(db); err != nil {
		a.failed = err
		return err
	}
	return nil
}

// LastSeq returns the newest sequence number appended: durable once the
// next flush returns.
func (a *Archive) LastSeq() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastSeq
}

// Err returns the sticky failure, if any append has failed.
func (a *Archive) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.failed
}

// Close flushes the pending batch, syncs and closes the archive. It returns
// the sticky append failure if one occurred, so callers learn their store
// outlived its durability.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.log != nil {
		ferr := a.flushLocked()
		serr := a.log.Sync()
		cerr := a.log.Close()
		a.log = nil
		if a.failed == nil {
			if ferr != nil {
				a.failed = ferr
			} else if serr != nil {
				a.failed = serr
			} else if cerr != nil {
				a.failed = cerr
			}
		}
	}
	return a.failed
}

// Dir returns the archive directory.
func (a *Archive) Dir() string { return a.dir }

// VersionAt materializes the on-disk version numbered seq: time travel
// against the durable stream, independent of any in-memory history. The
// mutex excludes concurrent appends, and the pending batch is flushed
// first; same-system reads then see every written byte through the
// page cache, so no fsync is needed.
func (a *Archive) VersionAt(seq int64) (*database.Database, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.flushLocked(); err != nil {
		return nil, err
	}
	return VersionAt(a.dir, seq)
}
