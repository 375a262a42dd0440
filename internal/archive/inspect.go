package archive

import (
	"fmt"
	"os"
	"path/filepath"
)

// FileInfo summarizes one archive file for inspection.
type FileInfo struct {
	Name    string
	Bytes   int64
	Records int
	// Err is empty for a cleanly decodable file, otherwise the problem.
	Err string
}

// Summary is the result of Inspect.
type Summary struct {
	Files []FileInfo
	// LastSeq is the last durable sequence (the recoverable version).
	LastSeq int64
	// Torn reports a truncated final record in the newest log segment.
	Torn bool
}

// Inspect walks an archive's files, validating every frame, and reports
// layout, record counts and the recoverable version.
func Inspect(dir string) (Summary, error) {
	st, err := scanDir(dir)
	if err != nil {
		return Summary{}, err
	}
	if len(st.snaps) == 0 {
		return Summary{}, fmt.Errorf("%w: %s", ErrNoArchive, dir)
	}
	var sum Summary
	stat := func(name string) int64 {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	for _, s := range st.snaps {
		info := FileInfo{Name: snapName(s), Bytes: stat(snapName(s))}
		if _, err := readSnapshot(dir, s); err != nil {
			info.Err = err.Error()
		} else {
			info.Records = 2 // header + snapshot
		}
		sum.Files = append(sum.Files, info)
	}
	for _, s := range st.logs {
		info := FileInfo{Name: logName(s), Bytes: stat(logName(s))}
		var dec Decoder
		sc, err := scanLog(dir, s, func(_, _ int64, form byte, payload []byte) error {
			_, err := dec.Decode(form, payload)
			return err
		})
		if err != nil {
			info.Err = err.Error()
		} else {
			info.Records = 1 + sc.records // header + log records
			if sc.torn {
				info.Err = "torn final record"
			}
		}
		sum.Files = append(sum.Files, info)
	}
	rec, err := recoverState(dir)
	if err != nil {
		return sum, err
	}
	sum.LastSeq = rec.lastSeq
	sum.Torn = rec.logTorn
	return sum, nil
}
