//go:build !unix

package funcdb_test

// fdLimit reports no limit where RLIMIT_NOFILE does not exist; the OS
// reports its own errors if a test overcommits descriptors.
func fdLimit() (uint64, bool) { return 0, false }
