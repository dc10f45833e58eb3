package workload

import "sync"

// ProgramCache is a bounded, content-addressed cache of synthesized
// programs. A sweep of R policies × S seeds over one benchmark asks for
// the same (name, seed) program R×S times; synthesis is by far the most
// expensive shared step, so the cache makes every job after the first
// reuse one immutable *Program.
//
// The key is the full Profile value — strictly stronger than the
// workload/seed slice of sim.Options.Fingerprint() ("bench=<Name>
// bseed=<Seed>"), which is the cache's observable identity for journal
// purposes. Keying on the whole profile means a custom profile that
// reuses a stock name with different parameters can never be served a
// stale program (the same hazard Fingerprint's documentation warns
// about); it simply occupies its own entry.
//
// Entries are LRU-evicted past the capacity bound, and concurrent
// requests for one missing key are collapsed singleflight-style: one
// caller synthesizes, the rest block on its result. Programs are
// immutable after construction (the engine never writes through its
// *Program), so handing one pointer to many goroutines is sound.
type ProgramCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Profile]*progEntry
	// Doubly-linked LRU list; head is most recent.
	head, tail *progEntry
	inflight   map[Profile]*progCall

	hits, misses, evictions uint64
}

type progEntry struct {
	key        Profile
	prog       *Program
	prev, next *progEntry
}

// progCall is one in-flight synthesis; done is closed after prog/err
// are set.
type progCall struct {
	done chan struct{}
	prog *Program
	err  error
}

// DefaultProgramCacheSize bounds the shared cache. Programs weigh a few
// MB each; 32 comfortably covers the 13 stock benchmarks plus a rolling
// window of replica-derived seeds, and an LRU sweep pattern (replicas
// are grouped, so each program's uses cluster in time) makes eviction
// of a still-needed entry rare.
const DefaultProgramCacheSize = 32

// SharedPrograms is the process-wide cache every simulation path —
// warm slots, batch executors, and the plain cold runner excepted —
// draws from. Cold runs deliberately bypass it so the throughput
// bench's cold baseline keeps paying full construction cost.
var SharedPrograms = NewProgramCache(DefaultProgramCacheSize)

// NewProgramCache returns an empty cache bounded to capacity entries
// (minimum 1).
func NewProgramCache(capacity int) *ProgramCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ProgramCache{
		capacity: capacity,
		entries:  make(map[Profile]*progEntry, capacity),
		inflight: make(map[Profile]*progCall),
	}
}

// Get returns the program for p, synthesizing it at most once per
// residency no matter how many goroutines ask concurrently. The hit
// path takes one mutex and allocates nothing.
func (c *ProgramCache) Get(p Profile) (*Program, error) {
	c.mu.Lock()
	if e := c.entries[p]; e != nil {
		c.touch(e)
		c.hits++
		c.mu.Unlock()
		return e.prog, nil
	}
	if call := c.inflight[p]; call != nil {
		c.mu.Unlock()
		<-call.done
		return call.prog, call.err
	}
	//lint:ignore raw-goroutine singleflight completion signal; no goroutine is spawned — waiters are runner-pool workers blocking outside the mutex
	call := &progCall{done: make(chan struct{})}
	c.inflight[p] = call
	c.misses++
	c.mu.Unlock()

	prog, err := NewProgram(p)

	c.mu.Lock()
	delete(c.inflight, p)
	if err == nil {
		c.insert(p, prog)
	}
	c.mu.Unlock()
	call.prog, call.err = prog, err
	close(call.done)
	return prog, err
}

// Stats reports lifetime hit/miss/eviction counts (observability and
// tests; not part of any result).
func (c *ProgramCache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Len reports the resident entry count.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// touch moves e to the LRU head. Caller holds mu.
func (c *ProgramCache) touch(e *progEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the list. Caller holds mu.
func (c *ProgramCache) unlink(e *progEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.head == e {
		c.head = e.next
	}
	if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// insert adds (p, prog) at the LRU head, evicting the tail when full.
// Caller holds mu.
func (c *ProgramCache) insert(p Profile, prog *Program) {
	if e := c.entries[p]; e != nil {
		// A racing Get built the same program; keep the resident one.
		c.touch(e)
		return
	}
	for len(c.entries) >= c.capacity {
		victim := c.tail
		if victim == nil {
			break
		}
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.evictions++
	}
	e := &progEntry{key: p, prog: prog}
	c.entries[p] = e
	c.touch(e)
}
