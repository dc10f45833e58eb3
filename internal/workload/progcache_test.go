package workload

import (
	"sync"
	"testing"
)

func testProfile(t *testing.T) Profile {
	t.Helper()
	prof, ok := ProfileByName("tomcat")
	if !ok {
		t.Fatal("tomcat profile missing")
	}
	return prof
}

// TestProgramCacheSingleflight hammers one missing key from many
// goroutines: all callers must get the same *Program and synthesis
// must have run exactly once.
func TestProgramCacheSingleflight(t *testing.T) {
	c := NewProgramCache(4)
	prof := testProfile(t)
	const callers = 16
	progs := make([]*Program, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(prof)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different program instance", i)
		}
	}
	if hits, misses, _ := c.Stats(); misses != 1 {
		t.Errorf("misses = %d (hits %d), want exactly 1 synthesis", misses, hits)
	}
}

// TestProgramCacheLRU fills past capacity and checks eviction order
// (least recently used goes first) plus the full-profile keying that
// keeps distinct parameterizations of one name apart.
func TestProgramCacheLRU(t *testing.T) {
	c := NewProgramCache(2)
	a := testProfile(t)
	b := a
	b.Seed ^= 0x1234
	d := a
	d.FootprintMB *= 0.5 // same name+seed, different params: own entry

	pa, err := c.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is now least recent; inserting d evicts b.
	if got, err := c.Get(a); err != nil || got != pa {
		t.Fatalf("hit on a returned (%p, %v), want (%p, nil)", got, err, pa)
	}
	pd, err := c.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if pd == pa {
		t.Fatal("distinct parameterization of the same name shared a program")
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	hits, misses, evictions := c.Stats()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	// a must still be resident (it was most recent when d arrived).
	if got, err := c.Get(a); err != nil || got != pa {
		t.Fatalf("a was evicted instead of b (hits %d misses %d)", hits, misses)
	}
	// b was evicted: refetching it re-synthesizes.
	_, preMiss, _ := c.Stats()
	if _, err := c.Get(b); err != nil {
		t.Fatal(err)
	}
	if _, postMiss, _ := c.Stats(); postMiss != preMiss+1 {
		t.Error("evicted entry served without re-synthesis")
	}
}

// TestProgramCacheError pins the failure path: invalid profiles
// propagate the synthesis error and are not cached.
func TestProgramCacheError(t *testing.T) {
	c := NewProgramCache(2)
	bad := testProfile(t)
	bad.FootprintMB = -1
	if _, err := c.Get(bad); err == nil {
		t.Fatal("invalid profile synthesized")
	}
	if c.Len() != 0 {
		t.Fatalf("failed synthesis left %d entries resident", c.Len())
	}
}
