package funcdb

// FailArchive closes a running store's archive under it, so every flush
// from then on fails the way a failed write would: for tests of what a
// store answers once it can no longer make anything durable.
func FailArchive(s *Store) error { return s.archive.Close() }
