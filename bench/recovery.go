package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"funcdb"
)

// Crash recovery for durable-write. Killing a process does not lose what the
// operating system has cached, so the benchmark discards the unflushed bytes
// itself: it notes every archive file's size at a barrier, keeps writing,
// and then recovers from a copy of the directory truncated to those sizes —
// the disk a machine would find after losing power right after the barrier.
// Everything acknowledged before the barrier must be readable, and the
// recovered version must be exactly the barrier's: a prefix of the stream,
// with nothing of the tail.

const (
	// recoverRecords is how many writes lie between the explicit snapshot
	// and the barrier (rounded up to whole acknowledged groups): what
	// recovery replays. Below SnapshotEvery, so no automatic snapshot cuts
	// the replay short.
	recoverRecords = 3000
	// unackedTail is how many writes each worker issues after the barrier;
	// the truncation throws them away.
	unackedTail = 500
)

func crashRecovery(out *outcome, t *durableTarget, streams []*stream, e *env) error {
	if err := t.store.Snapshot(); err != nil {
		return fmt.Errorf("snapshot before recovery: %w", err)
	}
	base := t.store.Current().Version()

	// Acknowledged writes: whole groups, every worker, then one barrier.
	groups := (recoverRecords + ackGroup*len(streams) - 1) / (ackGroup * len(streams))
	recs := make([]*recorder, len(streams))
	var wg sync.WaitGroup
	for w, st := range streams {
		recs[w] = &recorder{}
		wg.Add(1)
		go func(w int, st *stream) {
			defer wg.Done()
			for g := 0; g < groups; g++ {
				t.step(w, st, recs[w])
			}
		}(w, st)
	}
	wg.Wait()
	t.store.Barrier()
	for _, r := range recs {
		out.count(r, "pre-crash writes")
	}
	sizes := dirFiles(t.dir)
	atBarrier := t.store.Current().Version()
	acked := make([][][]string, len(streams))
	for w, st := range streams {
		acked[w] = make([][]string, len(st.shadow))
		for r, row := range st.shadow {
			acked[w][r] = append([]string(nil), row...)
		}
	}

	// The tail: committed in memory, never barriered.
	for w, st := range streams {
		wg.Add(1)
		go func(w int, st *stream) {
			defer wg.Done()
			rec := &recorder{}
			futs := make([]*funcdb.Future, 0, unackedTail)
			ops := make([]*op, 0, unackedTail)
			for i := 0; i < unackedTail; i++ {
				o := st.next()
				st.issue(o, nil)
				fut, err := t.store.ExecAsync(o.text)
				if err != nil {
					rec.fail(err)
					continue
				}
				futs, ops = append(futs, fut), append(ops, o)
			}
			for i, fut := range futs {
				rec.closed(st, ops[i], expectation{}, fut.Force(), nil)
			}
			recs[w] = rec
		}(w, st)
	}
	wg.Wait()
	for _, r := range recs {
		out.count(r, "post-barrier writes")
	}

	crashed, err := os.MkdirTemp(e.dir, "crashed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashed)
	for _, f := range sizes {
		if err := copyPrefix(filepath.Join(crashed, f.name), filepath.Join(t.dir, f.name), f.size); err != nil {
			return fmt.Errorf("copying the archive as the crash left it: %w", err)
		}
	}

	start := time.Now()
	recovered, err := funcdb.OpenDir(crashed)
	took := time.Since(start)
	if err != nil {
		out.note(fmt.Errorf("recovery failed: %w", err))
		return nil
	}
	defer recovered.Close()
	replayed := atBarrier - base
	out.ms.putN("recover_us_per_record", "us", float64(took.Microseconds())/float64(replayed), replayed)
	if got := recovered.Current().Version(); got != atBarrier {
		out.note(fmt.Errorf("recovered version %d is not the barrier's version %d: not an exact prefix", got, atBarrier))
	}
	var lost int64
	for w, st := range streams {
		for r, rel := range st.sh.rels {
			for k, want := range acked[w][r] {
				resp, err := recovered.Exec(fmt.Sprintf("find %d in %s", int(st.base)+k, rel))
				out.attempted++
				// want is "" for a key deleted and not yet reinserted.
				if err != nil || resp.Err != nil || resp.Found != (want != "") || tupleValue(resp.Tuple) != want {
					lost++
				}
			}
		}
	}
	out.failed += lost
	if lost > 0 {
		out.note(fmt.Errorf("recovery lost %d keys acknowledged before the barrier", lost))
	}
	return nil
}

// copyPrefix copies the first n bytes of src to dst.
func copyPrefix(dst, src string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	outf, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(outf, in, n); err != nil {
		outf.Close()
		return err
	}
	return outf.Close()
}
