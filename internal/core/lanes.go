package core

import (
	"runtime"
	"sort"
	"sync"
)

// Admission lanes shard the merge point. The paper's model is that any
// admission order respecting read/write dependencies yields an equivalent
// version history; a plan's access set (resolved in PR 2) makes those
// dependencies explicit, so the single merge mutex can split into N lanes
// keyed by a hash of the relation name:
//
//   - a transaction whose reads and writes land entirely in one lane
//     commits under that lane's lock alone (disjoint-access parallelism);
//   - a cross-lane transaction takes all its lanes in ascending lane-id
//     order, so multi-lane admissions cannot deadlock;
//   - publication of the successor snapshot is a CAS on the engine's
//     epoch-stamped pointer: lanes that finished admission concurrently
//     race to publish, and a loser rebases its (lane-private) cell changes
//     onto the winner's snapshot — its own cells cannot have moved, because
//     every writer of those relations needs its lane locks.
//
// Lane ids are stable for the engine's lifetime: laneOf depends only on
// the relation name and the lane count, never on the directory, so a plan
// can compute its lane set from the transaction's syntactic access set
// before any lock is held (and before the relations even exist, for
// creates).

// maxLanes bounds the default lane count; WithLanes may exceed it
// explicitly.
const maxLanes = 64

// DefaultLanes returns the lane count used when WithLanes is not given:
// the next power of two at or above GOMAXPROCS, capped at 64. One lane
// reproduces the single-mutex engine exactly.
func DefaultLanes() int {
	n := runtime.GOMAXPROCS(0)
	lanes := 1
	for lanes < n && lanes < maxLanes {
		lanes <<= 1
	}
	return lanes
}

// LaneOf returns the admission lane a relation name hashes to under a
// given lane count. The hash (FNV-1a) is deterministic across processes
// and releases: LaneOf doubles as the cluster placement function —
// internal/cluster places a relation's primary on node LaneOf(rel, N) —
// so every node of a real-network cluster must compute the same answer
// from the name alone. Exported for tests, benchmarks, and cluster
// clients that compute placement locally.
func LaneOf(name string, lanes int) int {
	if lanes <= 1 {
		return 0
	}
	// FNV-1a, inlined: the submission hot path computes a lane set per
	// transaction, so this must not allocate (hash/fnv's Hash64 would).
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(lanes))
}

// WithLanes sets the number of admission lanes. n < 1 is clamped to 1
// (the single-mutex engine); the default is DefaultLanes().
func WithLanes(n int) EngineOption {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.nlanes = n
	}
}

// Lanes returns the engine's admission lane count.
func (e *Engine) Lanes() int { return e.nlanes }

// laneSet is a sorted, deduplicated set of lane ids: the locks an
// admission must hold, in the order it must take them.
type laneSet []int

// laneSetOf computes the lanes tx's admission must lock, from the
// transaction's syntactic access set (ReadSet/WriteSet — no snapshot or
// lock needed). A read installs nothing, so it locks none (nil) unless
// WithSerializedReads. A custom transaction with no declared sets touches
// the whole directory, so it locks every lane: the full-barrier case. The
// common single-relation case returns a precomputed singleton, so the
// submission hot path allocates nothing for lane bookkeeping.
func (e *Engine) laneSetOf(tx Transaction) laneSet {
	if !e.serializedReads && tx.IsReadOnly() {
		return nil
	}
	if e.nlanes == 1 {
		return e.allLanes
	}
	if tx.Kind != KindCustom {
		// Built-ins touch exactly one relation (possibly invalid/empty,
		// which still serializes fine on lane 0's singleton).
		return e.laneSingle[LaneOf(tx.Rel, e.nlanes)]
	}
	if len(tx.Reads) == 0 && len(tx.Writes) == 0 {
		return e.allLanes
	}
	var set laneSet
	add := func(name string) {
		l := LaneOf(name, e.nlanes)
		for _, have := range set {
			if have == l {
				return
			}
		}
		set = append(set, l)
	}
	for _, name := range tx.Reads {
		add(name)
	}
	for _, name := range tx.Writes {
		add(name)
	}
	if len(set) == 1 {
		return e.laneSingle[set[0]]
	}
	sort.Ints(set)
	return set
}

// subsetOf reports whether every lane in sub is in super (both sorted).
func (sub laneSet) subsetOf(super laneSet) bool {
	i := 0
	for _, l := range sub {
		for i < len(super) && super[i] < l {
			i++
		}
		if i >= len(super) || super[i] != l {
			return false
		}
	}
	return true
}

// lockLanes acquires the set's lane mutexes in ascending lane-id order —
// the deterministic total order that makes cross-lane admissions
// deadlock-free.
func (e *Engine) lockLanes(ls laneSet) {
	for _, l := range ls {
		e.lanes[l].Lock()
	}
}

// unlockLanes releases the set's lane mutexes (reverse order, by
// convention).
func (e *Engine) unlockLanes(ls laneSet) {
	for i := len(ls) - 1; i >= 0; i-- {
		e.lanes[ls[i]].Unlock()
	}
}

// initLanes sizes the engine's lane array once options have run.
func (e *Engine) initLanes() {
	if e.nlanes < 1 {
		e.nlanes = 1
	}
	e.lanes = make([]sync.Mutex, e.nlanes)
	e.allLanes = make(laneSet, e.nlanes)
	e.laneSingle = make([]laneSet, e.nlanes)
	for i := range e.allLanes {
		e.allLanes[i] = i
		e.laneSingle[i] = e.allLanes[i : i+1]
	}
}
