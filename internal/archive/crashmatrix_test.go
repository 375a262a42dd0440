package archive

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/value"
)

// The crash-recovery matrix: a flush is one contiguous multi-frame write,
// and a kill can land at any byte of it. Each case
// below carves the log tail at a different offset — a clean frame
// boundary, one byte into a frame, mid-payload, inside the trailing CRC,
// or before any frame landed — and recovery must come back to a *prefix*
// of the lane-serialized version order: some version v with 0 <= v <= N,
// whose contents equal the uncorrupted archive's VersionAt(v), never a
// torn or reordered state.

// buildLaneArchive commits n writes from concurrent writers through a
// sharded (4-lane) engine into an archive in dir. The engine gets the
// archive's observer but not its flush, so the whole history stays
// buffered and lands in one multi-frame write at Close. It returns the last durable version
// number (== n: the notifier delivers lane commits in dense version order).
func buildLaneArchive(t *testing.T, dir string, n int) int64 {
	t.Helper()
	a, err := Create(dir, initialDB("A", "B", "C", "D"), Fsync(true))
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(initialDB("A", "B", "C", "D"),
		core.WithLanes(4), core.WithCommitObserver(a.Observer()))

	rels := []string{"A", "B", "C", "D"}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		// Writer w commits the keys congruent to w mod writers, so the
		// total is exactly n for any n.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += writers {
				e.Submit(core.Insert(rels[w], value.NewTuple(value.Int(int64(k)), value.Str("v"))))
			}
		}(w)
	}
	wg.Wait()
	e.Barrier()
	if err := a.Close(); err != nil { // flushes the buffer: one multi-frame write
		t.Fatal(err)
	}
	return int64(n)
}

// frameOffsets parses a log segment and returns the byte offset just past
// the header and past each subsequent frame, so the matrix can cut at
// exact frame boundaries and at points inside a frame.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := &reader{r: f}
	var offs []int64
	for {
		_, err := rd.next()
		if errors.Is(err, io.EOF) {
			return offs
		}
		if err != nil {
			t.Fatalf("pristine log does not parse: %v", err)
		}
		offs = append(offs, rd.off)
	}
}

// copyArchiveDir clones a pristine archive directory so each matrix case
// corrupts its own copy.
func copyArchiveDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestCrashRecoveryMatrix(t *testing.T) {
	const commits = 40
	pristine := t.TempDir()
	lastSeq := buildLaneArchive(t, pristine, commits)

	logPath := filepath.Join(pristine, logName(0))
	offs := frameOffsets(t, logPath)
	// offs[0] is just past the header; offs[k] is just past frame k.
	if len(offs) != commits+1 {
		t.Fatalf("pristine log has %d frames, want %d+header", len(offs), commits)
	}
	headerEnd := offs[0]
	lastFrameStart := offs[len(offs)-2]
	lastFrameEnd := offs[len(offs)-1]
	frameLen := lastFrameEnd - lastFrameStart

	cases := []struct {
		name string
		cut  int64 // truncate the log to this byte length
		want int64 // exact version recovery must land on; -1 = any prefix
	}{
		{"empty-tail/header-only", headerEnd, 0},
		{"empty-tail/no-header", headerEnd - 2, 0},
		{"frame-boundary/half-window", offs[commits/2], int64(commits / 2)},
		{"frame-boundary/all-but-one", lastFrameStart, lastSeq - 1},
		{"truncated-frame/type-byte-only", lastFrameStart + 1, lastSeq - 1},
		{"truncated-frame/mid-length", lastFrameStart + 3, lastSeq - 1},
		{"truncated-frame/mid-payload", lastFrameStart + frameLen/2, lastSeq - 1},
		{"torn-crc/first-crc-byte", lastFrameEnd - 4, lastSeq - 1},
		{"torn-crc/last-byte-missing", lastFrameEnd - 1, lastSeq - 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := copyArchiveDir(t, pristine)
			if err := os.Truncate(filepath.Join(dir, logName(0)), tc.cut); err != nil {
				t.Fatal(err)
			}

			got, err := Recover(dir)
			if err != nil {
				t.Fatalf("recovery failed on a torn tail: %v", err)
			}
			v := got.Version()
			if v < 0 || v > lastSeq {
				t.Fatalf("recovered version %d outside [0, %d]", v, lastSeq)
			}
			if tc.want >= 0 && v != tc.want {
				t.Fatalf("recovered version %d, want %d", v, tc.want)
			}
			// The recovered state must be exactly the pristine stream's
			// version v — a prefix of the lane-serialized order, nothing
			// torn, nothing reordered.
			want, err := VersionAt(pristine, v)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("recovered contents differ from pristine version %d", v)
			}

			// The archive must also reopen for appending after the torn
			// tail is truncated away, and new commits must land behind the
			// recovered prefix.
			a, db, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			if db.Version() != v {
				t.Fatalf("reopen recovered version %d, want %d", db.Version(), v)
			}
			e := core.NewEngine(db, core.WithCommitObserver(a.Observer()))
			e.Submit(core.Insert("A", value.NewTuple(value.Int(9999), value.Str("post-crash"))))
			e.Barrier()
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if re.Version() != v+1 {
				t.Fatalf("post-crash append recovered at %d, want %d", re.Version(), v+1)
			}
		})
	}
}

// TestCrashRecoveryMidStreamCorruptionIsFatal pins the matrix's boundary:
// a cut tail is recoverable, but a *mid-stream* checksum failure (bit rot
// inside the window, with valid frames after it) must refuse recovery
// rather than silently drop committed transactions.
func TestCrashRecoveryMidStreamCorruptionIsFatal(t *testing.T) {
	pristine := t.TempDir()
	buildLaneArchive(t, pristine, 12)
	dir := copyArchiveDir(t, pristine)
	logPath := filepath.Join(dir, logName(0))
	offs := frameOffsets(t, logPath)

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	mid := offs[len(offs)/2] - 2 // inside an interior frame's CRC
	data[mid] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-stream corruption recovered silently (err=%v)", err)
	}
}

// TestCrashRecoveryGroupCommitOffsets sweeps every byte offset of the
// final frame of a small window — the exhaustive version of the matrix's
// spot checks — asserting recovery always lands on one of the two legal
// prefixes (all frames, or all but the torn one).
func TestCrashRecoveryGroupCommitOffsets(t *testing.T) {
	const commits = 6
	pristine := t.TempDir()
	lastSeq := buildLaneArchive(t, pristine, commits)
	offs := frameOffsets(t, filepath.Join(pristine, logName(0)))
	start, end := offs[len(offs)-2], offs[len(offs)-1]

	for cut := start; cut <= end; cut++ {
		dir := copyArchiveDir(t, pristine)
		if err := os.Truncate(filepath.Join(dir, logName(0)), cut); err != nil {
			t.Fatal(err)
		}
		got, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := lastSeq - 1
		if cut == end {
			want = lastSeq
		}
		if got.Version() != want {
			t.Fatalf("cut at %d (frame %s): recovered %d, want %d",
				cut, fmt.Sprintf("[%d,%d]", start, end), got.Version(), want)
		}
	}
}
