package pipeline

import (
	"math/bits"

	"emissary/internal/cache"
	"emissary/internal/rng"
	"emissary/internal/stats"
	"emissary/internal/trace"
)

// ringBits sizes the cycle-indexed scheduling rings; completion times
// are capped this far in the future.
const ringBits = 16
const ringSize = 1 << ringBits
const ringMask = ringSize - 1

// depWindow is how far back (in sequence numbers) register
// dependences can reach.
const depWindow = 64

// wrap reduces i, which must lie in [0, 2n), to a slot of an n-slot
// ring (the ROB or the FTQ) with a compare instead of a divide.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// robEntry is one in-flight instruction.
type robEntry struct {
	seq        uint64
	pc         uint64
	completeAt uint64
	issueAt    uint64
	isLoad     bool
	isStore    bool
	wrongPath  bool
	// Mispredicted-branch resolution bookkeeping.
	resolves bool
}

// backend is the approximate out-of-order engine: analytic dataflow
// scheduling (each instruction's issue time is the max of its operand
// ready times, subject to issue bandwidth), with real ROB/IQ/LQ/SQ
// occupancy limits and in-order commit.
type backend struct {
	cfg  *Config
	hier *cache.Hierarchy
	// lineShift caches hier.LineShift(): dispatch shifts every
	// load/store address by it, so it must not cost a call per op.
	lineShift uint

	rob        []robEntry
	head, tail int // ring indices
	count      int //vet:skip-invariant dispatch/commit/flush only; planSkip refuses commit-eligible, resolve-due and dispatch-able cycles

	seq       uint64 //vet:skip-invariant advances only at dispatch; planSkip refuses dispatch-able cycles
	committed uint64 //vet:skip-invariant commit path only; planSkip refuses commit-eligible cycles

	// Issue-queue model: instructions occupy the IQ from dispatch to
	// issue; iqRelease[c] counts entries leaving at cycle c.
	iqCount   int     //vet:skip-invariant changes at dispatch and when beginCycle consumes a scheduled release; nextIQEvent makes releases wake-ups, so skipped cycles subtract zero
	iqRelease []int32 //vet:skip-invariant set at dispatch, cleared when a release fires; both are skip-refused or wake-up events
	// issueBusy[c] counts issue slots used at cycle c.
	issueBusy []int32 //vet:skip-invariant incremented at dispatch, unwound by flush; both refused by planSkip

	// iqBits is a one-bit-per-slot summary of iqRelease feeding the
	// cycle skipper's wake-up computation: a set bit marks a slot
	// holding pending releases. dispatch sets it, beginCycle clears
	// the consumed slot, and flushAfter clears a slot's bit eagerly
	// when it unwinds the slot's last release — so a set bit always
	// covers a nonzero count (pinned by TestIQBitsCoverReleases).
	iqBits [ringSize / 64]uint64
	// iqPend counts outstanding iqRelease entries across the whole
	// ring — the exact number of scheduled future issue events — so
	// nextIQEvent can skip the bitmap scan when the queue is drained.
	//vet:skip-invariant mirrors iqRelease occupancy; dispatch and release cycles are skip-refused or wake-ups
	iqPend int

	lqCount, sqCount int //vet:skip-invariant dispatch/commit/flush only; planSkip refuses those cycles

	resolve resolveRecord

	// Completion times of the last depWindow instructions, by seq.
	lastComplete [depWindow]uint64

	depSeed uint64

	// Statistics.
	Stalls             stats.StallBreakdown
	WrongPathOps       uint64 //vet:skip-invariant dispatch path only; planSkip refuses dispatch-able cycles
	LoadsIssued        uint64 //vet:skip-invariant dispatch path only; planSkip refuses dispatch-able cycles
	StoresIssued       uint64 //vet:skip-invariant dispatch path only; planSkip refuses dispatch-able cycles
	Flushes            uint64 //vet:skip-invariant flush fires at resolve completion, a wake-up event planSkip refuses when due
	CommitActiveCycles uint64 //vet:skip-invariant counts only cycles that commit; skipped spans commit nothing
	lastFlushAt        uint64
}

func newBackend(cfg *Config, hier *cache.Hierarchy, seed uint64) *backend {
	return &backend{
		cfg:       cfg,
		hier:      hier,
		lineShift: hier.LineShift(),
		rob:       make([]robEntry, cfg.ROBSize),
		iqRelease: make([]int32, ringSize),
		issueBusy: make([]int32, ringSize),
		depSeed:   rng.Mix2(seed, 0xdeb5),
	}
}

// reset restores the back-end to the state newBackend would build,
// reusing every allocation. Core.Reset guarantees ROBSize is
// unchanged; the scheduling rings are fixed-size.
//
//vet:hot
func (b *backend) reset(hier *cache.Hierarchy, seed uint64) {
	b.hier = hier
	b.lineShift = hier.LineShift()
	clear(b.rob)
	b.head = 0
	b.tail = 0
	b.count = 0
	b.seq = 0
	b.committed = 0
	b.iqCount = 0
	clear(b.iqRelease)
	clear(b.issueBusy)
	clear(b.iqBits[:])
	b.iqPend = 0
	b.lqCount = 0
	b.sqCount = 0
	b.resolve = resolveRecord{}
	clear(b.lastComplete[:])
	b.depSeed = rng.Mix2(seed, 0xdeb5)
	b.Stalls = stats.StallBreakdown{}
	b.WrongPathOps = 0
	b.LoadsIssued = 0
	b.StoresIssued = 0
	b.Flushes = 0
	b.CommitActiveCycles = 0
	b.lastFlushAt = 0
}

// canAccept reports whether dispatch has room for one instruction of
// the given class.
func (b *backend) canAccept(cls trace.Class) bool {
	if b.count >= b.cfg.ROBSize || b.iqCount >= b.cfg.IQSize {
		return false
	}
	switch cls {
	case trace.ClassLoad:
		return b.lqCount < b.cfg.LQSize
	case trace.ClassStore:
		return b.sqCount < b.cfg.SQSize
	default:
		return true
	}
}

// findIssueSlot returns the first cycle >= from with spare issue
// bandwidth, reserving it.
func (b *backend) findIssueSlot(from, now uint64) uint64 {
	if from < now+1 {
		from = now + 1
	}
	max := now + ringSize - 2
	c := from
	for c < max && b.issueBusy[c&ringMask] >= int32(b.cfg.IssueWidth) {
		c++
	}
	b.issueBusy[c&ringMask]++
	return c
}

// dispatch inserts one instruction. memLine is the accessed cache line
// (valid only when hasMem). resolves marks the terminator of a
// mispredicted block; its completion triggers the flush.
// Returns the entry's completion cycle.
func (b *backend) dispatch(now uint64, pc uint64, cls trace.Class, hasMem bool, memAddr uint64, wrongPath, resolves bool) uint64 {
	readyAt := now + 1
	// Register dependences: most instructions have one or two
	// producers at hash-derived distances, a structural stand-in for
	// real dataflow; ~30% are dependence-free (immediates, loop
	// counters held in registers, …).
	h := rng.Mix2(b.depSeed, pc)
	if h%10 < 7 {
		d1 := 1 + (h>>8)%8
		if dep := b.completeOf(b.seq, d1); dep > readyAt {
			readyAt = dep
		}
		if h&0x100000 != 0 {
			d2 := 1 + (h>>24)%16
			if dep := b.completeOf(b.seq, d2); dep > readyAt {
				readyAt = dep
			}
		}
	}

	issueAt := b.findIssueSlot(readyAt, now)
	lat := uint64(cls.Latency())
	switch cls {
	case trace.ClassLoad:
		b.lqCount++
		b.LoadsIssued++
		if hasMem {
			lat = uint64(b.hier.AccessData(memAddr>>b.lineShift, false))
		} else {
			lat = 2 // wrong-path load: charged L1D-hit time, no cache access
		}
	case trace.ClassStore:
		b.sqCount++
		b.StoresIssued++
		if hasMem {
			b.hier.AccessData(memAddr>>b.lineShift, true)
		}
		lat = 1 // stores retire through the store buffer
	}
	// Results reach dependents through the bypass network as soon as
	// execution finishes; the dispatch-to-retire pipeline depth
	// (ExecOffset) is charged only to commit and branch resolution.
	dataReadyAt := issueAt + lat
	completeAt := dataReadyAt + uint64(b.cfg.ExecOffset)
	if completeAt > now+ringSize-2 {
		completeAt = now + ringSize - 2
		dataReadyAt = completeAt
	}

	e := robEntry{
		seq:        b.seq,
		pc:         pc,
		completeAt: completeAt,
		issueAt:    issueAt,
		isLoad:     cls == trace.ClassLoad,
		isStore:    cls == trace.ClassStore,
		wrongPath:  wrongPath,
		resolves:   resolves,
	}
	b.rob[b.tail] = e
	b.tail = wrap(b.tail+1, b.cfg.ROBSize)
	b.count++
	b.iqCount++
	slot := issueAt & ringMask
	b.iqRelease[slot]++
	b.iqBits[slot>>6] |= 1 << (slot & 63)
	b.iqPend++
	b.lastComplete[b.seq%depWindow] = dataReadyAt
	b.seq++
	if wrongPath {
		b.WrongPathOps++
	}
	return completeAt
}

// completeOf returns the completion time of the instruction `dist`
// before seq, or 0 when out of window.
func (b *backend) completeOf(seq, dist uint64) uint64 {
	if dist == 0 || dist > depWindow || dist > seq {
		return 0
	}
	return b.lastComplete[(seq-dist)%depWindow]
}

// beginCycle releases issue-queue entries whose issue time has come.
func (b *backend) beginCycle(now uint64) {
	slot := now & ringMask
	b.iqCount -= int(b.iqRelease[slot])
	b.iqPend -= int(b.iqRelease[slot])
	b.iqRelease[slot] = 0
	b.iqBits[slot>>6] &^= 1 << (slot & 63)
	if b.iqCount < 0 {
		b.iqCount = 0
	}
	// Retire the just-passed cycle's bandwidth slot so it can serve
	// its future alias (findIssueSlot never reaches an uncleared one).
	if now > 0 {
		b.issueBusy[(now-1)&ringMask] = 0
	}
}

// iqEmpty is the paper's E signal.
func (b *backend) iqEmpty() bool { return b.iqCount == 0 }

// At most one unresolved mispredicted branch exists at a time (the
// front-end cannot detect a second mispredict while already on the
// wrong path), so resolution tracking is a single record.
type resolveRecord struct {
	active     bool
	seq        uint64
	completeAt uint64
}

// registerResolve notes the dispatched mispredicted terminator.
func (b *backend) registerResolve(seq, completeAt uint64) {
	b.resolve = resolveRecord{active: true, seq: seq, completeAt: completeAt}
}

// resolveReady reports whether the pending mispredict has executed.
func (b *backend) resolveReady(now uint64) (uint64, bool) {
	if b.resolve.active && b.resolve.completeAt <= now {
		return b.resolve.seq, true
	}
	return 0, false
}

// flushAfter squashes every entry younger than seq, unwinding
// occupancy and future scheduling reservations.
func (b *backend) flushAfter(seq, now uint64) {
	for b.count > 0 {
		lastIdx := wrap(b.tail-1+b.cfg.ROBSize, b.cfg.ROBSize)
		e := &b.rob[lastIdx]
		if e.seq <= seq {
			break
		}
		if e.issueAt > now {
			// Still waiting in the IQ: free its slot and bandwidth,
			// and clear the slot's summary bit when this was its last
			// pending release, so the skipper never wakes for an
			// empty slot.
			b.iqCount--
			b.iqPend--
			slot := e.issueAt & ringMask
			b.iqRelease[slot]--
			if b.iqRelease[slot] == 0 {
				b.iqBits[slot>>6] &^= 1 << (slot & 63)
			}
			b.issueBusy[slot]--
		}
		if e.isLoad {
			b.lqCount--
		}
		if e.isStore {
			b.sqCount--
		}
		b.tail = lastIdx
		b.count--
	}
	b.seq = seq + 1
	b.lastFlushAt = now
	b.resolve = resolveRecord{}
	b.Flushes++
}

// commit retires completed instructions in order; returns the number
// committed this cycle (correct-path only — wrong-path entries are
// squashed before they can reach here, but guard anyway).
func (b *backend) commit(now uint64) int {
	n := 0
	for n < b.cfg.CommitWidth && b.count > 0 {
		e := &b.rob[b.head]
		if e.completeAt > now {
			break
		}
		if e.isLoad {
			b.lqCount--
		}
		if e.isStore {
			b.sqCount--
		}
		b.head = wrap(b.head+1, b.cfg.ROBSize)
		b.count--
		if !e.wrongPath {
			b.committed++
			n++
		}
	}
	if n > 0 {
		b.CommitActiveCycles++
	}
	return n
}

// nextIQEvent returns the earliest cycle > now at which an
// issue-queue release is scheduled, scanning the iqBits summary
// bitmap in ring order. ok is false when no release is pending
// anywhere. Every set bit covers a nonzero release count (flushAfter
// clears a slot's bit with its last release), so the result is the
// exact next release cycle, never an early false wake-up.
func (b *backend) nextIQEvent(now uint64) (uint64, bool) {
	if b.iqPend == 0 {
		return 0, false
	}
	const numWords = ringSize / 64
	start := (now + 1) & ringMask
	firstWord := start >> 6
	if w := b.iqBits[firstWord] >> (start & 63); w != 0 {
		return now + 1 + uint64(bits.TrailingZeros64(w)), true
	}
	// All scheduled releases lie in (now, now+ringSize-2], so one lap
	// over the ring — re-entering firstWord at i == numWords to cover
	// the bits below start — is exhaustive.
	for i := uint64(1); i <= numWords; i++ {
		idx := (firstWord + i) & (numWords - 1)
		w := b.iqBits[idx]
		if w == 0 {
			continue
		}
		off := i*64 - (start & 63) + uint64(bits.TrailingZeros64(w))
		return now + 1 + off, true
	}
	return 0, false
}

// classifyStall records the commit-path stall taxonomy for a cycle in
// which nothing committed.
func (b *backend) classifyStall(now uint64) {
	if b.count == 0 {
		if now-b.lastFlushAt <= 12 && b.lastFlushAt != 0 {
			b.Stalls.Record(stats.StallFlushRecover, 1)
		} else {
			b.Stalls.Record(stats.StallFrontEnd, 1)
		}
		return
	}
	b.Stalls.Record(stats.StallBackEnd, 1)
}
