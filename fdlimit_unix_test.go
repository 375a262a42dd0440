//go:build unix

package funcdb_test

import "syscall"

// fdLimit reports the process's soft file-descriptor limit.
func fdLimit() (uint64, bool) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 0, false
	}
	return uint64(rl.Cur), true
}
