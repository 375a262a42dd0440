package query

import (
	"fmt"
	"sync"
	"testing"

	"funcdb/internal/core"
)

func TestStmtCacheHitReturnsSamePrepared(t *testing.T) {
	c := NewStmtCache(8)
	a, err := c.Get("find 1 in R")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get("find 1 in R")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Get did not hit the cache")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if a.Rel() != "R" || a.Kind() != core.KindFind {
		t.Errorf("accessors: rel %q kind %v", a.Rel(), a.Kind())
	}
}

func TestStmtCacheErrorNotCached(t *testing.T) {
	c := NewStmtCache(8)
	if _, err := c.Get("not a query"); err == nil {
		t.Fatal("bad query prepared")
	}
	if c.Len() != 0 {
		t.Errorf("error cached: len = %d", c.Len())
	}
}

func TestStmtCacheEvictsLRU(t *testing.T) {
	c := NewStmtCache(4)
	for i := 0; i < 8; i++ {
		if _, err := c.Get(fmt.Sprintf("find %d in R", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	// The newest four survive; the oldest four were evicted.
	c.Get("find 7 in R")
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("newest entry evicted: hits = %d", hits)
	}
	c.Get("find 0 in R")
	if _, misses := c.Stats(); misses != 9 {
		t.Errorf("oldest entry survived eviction: misses = %d", misses)
	}
}

func TestStmtCacheInvalidateRel(t *testing.T) {
	c := NewStmtCache(16)
	c.Get("find 1 in R")
	c.Get("count R")
	c.Get("count S")
	c.InvalidateRel("R")
	if c.Len() != 1 {
		t.Fatalf("len after invalidate = %d, want 1", c.Len())
	}
	c.Get("count S")
	if hits, _ := c.Stats(); hits != 1 {
		t.Error("statement on another relation was invalidated")
	}
	c.Get("count R")
	if _, misses := c.Stats(); misses != 4 {
		t.Errorf("invalidated statement still cached: misses = %d", misses)
	}
}

func TestStmtCacheConcurrent(t *testing.T) {
	c := NewStmtCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := fmt.Sprintf("find %d in R%d", i%10, g%3)
				if _, err := c.Get(src); err != nil {
					t.Errorf("Get(%q): %v", src, err)
					return
				}
				if i%50 == 0 {
					c.InvalidateRel(fmt.Sprintf("R%d", g%3))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStmtCacheRegisterStableID: a statement's wire name is its text hash.
// Preparing the same text again returns the same entry, which ByHash
// resolves.
func TestStmtCacheRegisterStableID(t *testing.T) {
	c := NewStmtCache(8)
	prep, err := c.Get("find ? in R")
	if err != nil {
		t.Fatal(err)
	}
	if prep.Hash() != HashText("find ? in R") || prep.Hash() == 0 {
		t.Fatal("Prepared.Hash diverged from HashText")
	}
	if prep2, err := c.Get("find ? in R"); err != nil || prep2 != prep {
		t.Fatalf("re-prepare diverged: %v", err)
	}
	if got, ok := c.ByHash(prep.Hash()); !ok || got != prep {
		t.Fatal("ByHash did not resolve a live statement")
	}
	if _, ok := c.ByHash(HashText("find ? in S")); ok {
		t.Fatal("ByHash resolved a statement never prepared")
	}
}

func TestStmtCacheEvictionForgetsID(t *testing.T) {
	c := NewStmtCache(2)
	prep, err := c.Get("find ? in R")
	if err != nil {
		t.Fatal(err)
	}
	// Two younger statements push it out of the LRU.
	c.Get("count R")
	c.Get("count S")
	if _, ok := c.ByHash(prep.Hash()); ok {
		t.Fatal("evicted hash still resolves — a stale hash must be unknown, never a stale plan")
	}
	// Preparing the text again brings the same name back, with a fresh plan.
	again, err := c.Get("find ? in R")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.ByHash(prep.Hash()); !ok || got != again || got == prep {
		t.Fatal("re-prepared statement does not resolve to its fresh plan")
	}
}

func TestStmtCacheInvalidateRelForgetsID(t *testing.T) {
	c := NewStmtCache(8)
	prep, err := c.Get("find ? in R")
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Get("count S")
	if err != nil {
		t.Fatal(err)
	}
	c.InvalidateRel("R")
	if _, ok := c.ByHash(prep.Hash()); ok {
		t.Fatal("invalidated hash still resolves")
	}
	if got, ok := c.ByHash(other.Hash()); !ok || got != other {
		t.Fatal("invalidation of R dropped a statement on S")
	}
	again, err := c.Get("find ? in R")
	if err != nil {
		t.Fatal(err)
	}
	if again == prep {
		t.Fatal("Get after invalidation returned the pre-invalidation plan")
	}
	if got, ok := c.ByHash(prep.Hash()); !ok || got != again {
		t.Fatal("re-prepared statement does not resolve by its hash")
	}
}
