package pipeline

// Event-driven cycle skipping: when a Step makes no progress and every
// condition that could change the machine's state lies strictly in the
// future, the span until the earliest such wake-up event is a sequence
// of cycles that each repeat the same no-op Step with the same counter
// increments. planSkip proves a cycle is such a fixed point and
// captures the per-cycle counter deltas; Core.skipTo then jumps the
// clock across the span, bulk-applying delta x length, with results
// byte-identical to the naive walk (pinned by TestGoldenEquivalence
// and the skip/no-skip differential tests).

import (
	"emissary/internal/branch"
	"emissary/internal/stats"
	"emissary/internal/trace"
)

// never is the "no wake-up scheduled" sentinel: a machine with no
// future events is dead, and the skipper may jump straight to the
// caller's cap (livelock or cycle-budget detection in O(1)).
const never = ^uint64(0)

// Fetch-blocked classification for a quiet cycle, mirroring the
// counter chain at the top of fetchBlock.
const (
	fbNone = iota
	fbDeadEnd
	fbFull
	fbPredecode
)

// skipDelta is the set of per-cycle counter increments one quiet
// cycle accrues; skipTo multiplies it by the span length. Everything
// else a Step can touch is provably constant across the span.
type skipDelta struct {
	// classifyStall records exactly one kind per no-commit cycle.
	stallKind stats.StallKind
	// fetchBlock's blocked counter, charged FetchWidth times a cycle.
	fetchBlockKind int
	// decode with an empty FTQ.
	fetchStall bool
	// MSHR-full retries per cycle: decode's demand request and/or the
	// FDIP prefetch scan's first unrequested line (0, 1 or 2).
	mshrFull uint64
	// Decode starved on an in-flight line (markStarvation repeats).
	starv, starvIQE, starvCommit, starvBucketOK bool
	starvBucket                                 int
}

// requestWouldStall reports whether requestLine(line) would hit the
// MSHR-full path with no other side effect — the only requestLine
// outcome that leaves the front-end unchanged (modulo the
// MSHRFullEvents counter). Any other outcome (reuse-tracker update,
// MSHR merge setting the requested bit, probe/fill) mutates state, so
// the caller must refuse to skip.
func (f *frontend) requestWouldStall(line uint64, trackFig2 bool) bool {
	if trackFig2 && f.tracker != nil && (!f.haveReuseLine || f.lastReuseLine != line) {
		return false
	}
	if _, ok := f.lineBlocked(line); ok {
		return false
	}
	return len(f.pending) >= f.cfg.MaxMSHRs
}

// nextFillCompletion returns the earliest outstanding-miss completion
// cycle, and whether any miss is outstanding.
func (f *frontend) nextFillCompletion() (uint64, bool) {
	if len(f.pending) == 0 {
		return 0, false
	}
	min := f.pending[0].completeAt
	for _, m := range f.pending[1:] {
		if m.completeAt < min {
			min = m.completeAt
		}
	}
	return min, true
}

// planSkip decides whether the machine is quiescent at the current
// cycle — every Step until the next wake-up event would change nothing
// but monotone counters — and if so returns the earliest cycle at
// which state can change (never if none) plus the per-cycle counter
// delta. It must be called only immediately after a Step that
// committed nothing: one-time effects of entering the stalled state
// (starvation marking, reuse-tracker accesses) have then already
// fired, which planSkip verifies before declaring the span skippable.
func (c *Core) planSkip() (uint64, skipDelta, bool) {
	now := c.cycle
	wake := uint64(never)
	var d skipDelta

	// A pending priority reset would re-trigger every cycle.
	if c.nextPriorityReset > 0 && c.be.committed >= c.nextPriorityReset {
		return 0, d, false
	}

	// Back end: a commit-eligible ROB head or resolved mispredict
	// means the next Step mutates state; otherwise their timestamps
	// are wake-up events. classifyStall's kind is constant up to the
	// flush-recovery window boundary.
	b := c.be
	if b.resolve.active {
		if b.resolve.completeAt <= now {
			return 0, d, false
		}
		if b.resolve.completeAt < wake {
			wake = b.resolve.completeAt
		}
	}
	if b.count > 0 {
		head := &b.rob[b.head]
		if head.completeAt <= now {
			return 0, d, false
		}
		if head.completeAt < wake {
			wake = head.completeAt
		}
		d.stallKind = stats.StallBackEnd
	} else if b.lastFlushAt != 0 && now-b.lastFlushAt <= 12 {
		d.stallKind = stats.StallFlushRecover
		if bound := b.lastFlushAt + 13; bound < wake {
			wake = bound
		}
	} else {
		d.stallKind = stats.StallFrontEnd
	}
	if ev, ok := b.nextIQEvent(now); ok {
		if ev <= now {
			return 0, d, false
		}
		if ev < wake {
			wake = ev
		}
	}

	// Front end: outstanding fills and the predecoder are the timed
	// state; each completion is a wake-up event.
	f := c.fe
	if fill, ok := f.nextFillCompletion(); ok {
		if fill <= now {
			return 0, d, false
		}
		if fill < wake {
			wake = fill
		}
	}
	if f.predecodeBusy {
		if f.predecodeAt <= now {
			return 0, d, false
		}
		if f.predecodeAt < wake {
			wake = f.predecodeAt
		}
	}

	// fetchBlock must be on a blocked path (the counter chain mirrors
	// its first lines); anything else predicts and enqueues.
	switch {
	case f.deadEnd:
		d.fetchBlockKind = fbDeadEnd
	case f.full():
		d.fetchBlockKind = fbFull
	case f.predecodeBusy: // now < predecodeAt established above
		d.fetchBlockKind = fbPredecode
	case f.oracleDone:
		d.fetchBlockKind = fbNone
	default:
		return 0, d, false
	}

	// decode: each stalled shape repeats with a fixed counter delta.
	if e := f.head(); e == nil {
		d.fetchStall = true
	} else {
		pc := e.addr + 4*uint64(e.consumed)
		li := e.lineIndex(pc)
		line := e.lines[li]
		if e.requested&(1<<uint(li)) == 0 {
			// Demand request retried every cycle; quiet only on the
			// bare MSHR-full path.
			if !f.requestWouldStall(line, !e.wrongPath) {
				return 0, d, false
			}
			d.mshrFull++
		} else if m, blocked := f.lineBlocked(line); blocked {
			if b.canAccept(trace.ClassALU) {
				// markStarvation repeats; its one-time effects must
				// already have fired or a naive Step would differ.
				iqEmpty := b.iqEmpty()
				if !m.starved || (iqEmpty && !m.iqEmptySeen) {
					return 0, d, false
				}
				d.starv = true
				d.starvIQE = iqEmpty
				if !e.wrongPath {
					d.starvCommit = true
					if f.tracker != nil {
						d.starvBucketOK = true
						d.starvBucket = int(f.lastBucket[line])
					}
				}
			}
		} else {
			// Line ready: decode dispatches unless the back end is
			// full for this class.
			isTerm := e.consumed == e.n-1 && e.endKind != branch.KindFallthrough
			cls := trace.ClassBranch
			if !isTerm {
				cls = c.src.InstrClass(pc)
			}
			if b.canAccept(cls) {
				return 0, d, false
			}
		}
	}

	// FDIP prefetch scan: its first unrequested line (at or after the
	// scanDone cursor) is retried every cycle; quiet only if that retry
	// is a bare MSHR-full miss, which leaves the cursor in place.
	if c.cfg.FDIP {
		idx := (f.ftqHead + f.scanDone) % f.cfg.FTQEntries
	scan:
		for i := f.scanDone; i < f.ftqCount; i++ {
			e := &f.ftq[idx]
			for li := 0; li < e.nLines; li++ {
				if e.requested&(1<<uint(li)) != 0 {
					continue
				}
				if !f.requestWouldStall(e.lines[li], !e.wrongPath) {
					return 0, d, false
				}
				d.mshrFull++
				break scan
			}
			idx = (idx + 1) % f.cfg.FTQEntries
		}
	}

	return wake, d, true
}

// trySkip fast-forwards across a quiescent span, advancing at most
// room cycles (the caller's no-progress allowance) and never past
// Config.MaxCycles, so livelock and budget errors fire on exactly the
// cycle the naive walk would have produced. Returns the number of
// cycles skipped (0 when skipping is disabled, the machine is not
// quiescent, or the wake-up event is the very next cycle).
func (c *Core) trySkip(room uint64) uint64 {
	if c.cfg.NoCycleSkip || room == 0 {
		return 0
	}
	wake, d, ok := c.planSkip()
	if !ok {
		return 0
	}
	// Skip to wake-1: the Step at wake must run for real.
	target := c.cycle + room
	if wake != never && wake-1 < target {
		target = wake - 1
	}
	if c.cfg.MaxCycles > 0 && target > c.cfg.MaxCycles {
		target = c.cfg.MaxCycles
	}
	if target <= c.cycle {
		return 0
	}
	n := target - c.cycle
	c.skipTo(target, &d)
	return n
}
