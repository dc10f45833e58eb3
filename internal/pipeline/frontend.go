package pipeline

import (
	"emissary/internal/branch"
	"emissary/internal/cache"
	"emissary/internal/core"
	"emissary/internal/reuse"
	"emissary/internal/trace"
)

// mshrEntry tracks one outstanding instruction-line miss, including
// the starvation observations that feed EMISSARY's mode selection.
type mshrEntry struct {
	line        uint64
	completeAt  uint64
	src         cache.Source
	starved     bool
	iqEmptySeen bool
}

// ftqEntry is one fetched basic block in the fetch target queue; the
// FTQ doubles as the instruction buffer, so per-entry line readiness
// is what decode consumes.
type ftqEntry struct {
	addr    uint64
	n       int
	endKind branch.Kind

	wrongPath  bool
	mispredict bool // terminator was mispredicted (correct path only)

	mem    []trace.MemRef
	memIdx int //vet:skip-invariant advances with decode; planSkip refuses dispatch-able cycles

	consumed int //vet:skip-invariant advances with decode; planSkip refuses dispatch-able cycles

	lines     [2]uint64
	nLines    int
	requested uint8 // bitmask over lines
}

func (e *ftqEntry) lineIndex(pc uint64) int {
	if pc>>6 == e.lines[0] {
		return 0
	}
	return 1
}

// resteerState records a detected mispredict awaiting resolution. The
// RAS recovery snapshot lives outside it (frontend.rasSnap) so that
// clearing the resteer does not drop the snapshot's allocation.
type resteerState struct {
	pending      bool
	correctNext  uint64
	kind         branch.Kind
	fallthrough_ uint64
}

// frontend is the decoupled FDIP fetch engine.
type frontend struct {
	cfg          *Config
	src          trace.Source
	hier         *cache.Hierarchy
	sel          *core.Selector
	useSelection bool

	btb    *branch.BTB
	tage   *branch.TAGE
	ittage *branch.ITTAGE
	ras    *branch.RAS

	ftq      []ftqEntry
	ftqHead  int
	ftqCount int //vet:skip-invariant changes on enqueue, decode pop and recover; planSkip requires fetchBlock blocked, no dispatch, no resolve
	ftqInstr int //vet:skip-invariant changes on enqueue, decode pop and recover; planSkip requires fetchBlock blocked, no dispatch, no resolve
	// scanDone counts the FTQ entries, from the head, whose lines are
	// all requested; prefetchScan resumes after them instead of
	// rescanning from the head. Requested bits are only ever set while
	// an entry is queued, so the prefix stays complete until pop
	// (which shifts it by one) or recover/reset (which empty the FTQ).
	scanDone int //vet:skip-invariant moves only when the FDIP scan completes an entry or decode pops one; planSkip requires the first unrequested line to be a bare MSHR-full retry and refuses dispatch-able cycles

	nextPC     uint64
	havePC     bool
	wrongPath  bool
	deadEnd    bool
	resteer    resteerState
	oracleDone bool

	// rasSnap is the RAS state saved when a mispredict is detected and
	// restored at recovery. At most one mispredict is outstanding (a
	// second cannot be detected while already on the wrong path), so a
	// single persistent snapshot — refreshed in place — suffices.
	rasSnap branch.RASSnapshot

	predecodeBusy  bool
	predecodeAt    uint64
	predecodeEntry branch.BTBEntry

	primeEvent trace.BlockEvent
	havePrime  bool

	// pending holds the live MSHRs, at most MaxMSHRs of them, so a
	// linear scan (lineBlocked) finds a line's entry without hashing.
	pending []*mshrEntry
	// mshrSlab backs every mshrEntry; mshrFree is the stack of unused
	// entries (managed by reslicing within its fixed capacity). An
	// entry is live — in pending — from requestLine until
	// processCompletions returns it to the free stack.
	mshrSlab []mshrEntry
	mshrFree []*mshrEntry
	// memArena holds each FTQ slot's memory references: slot i owns
	// memArena[i*trace.MaxBlockMem : (i+1)*trace.MaxBlockMem]. Entries
	// copy the oracle event's Mem here at enqueue, since a Source's
	// Mem slice is only valid until the next NextBlock call.
	memArena []trace.MemRef
	scratch  []branch.BTBEntry
	mrc      *mrc

	// Reuse-distance tracking (Figure 2), enabled by cfg.TrackReuse.
	tracker        *reuse.Tracker
	lastBucket     map[uint64]reuse.Bucket
	lastReuseLine  uint64
	haveReuseLine  bool
	AccessByBucket [3]uint64 //vet:skip-invariant counted once per new line; requestWouldStall refuses the skip until that access has fired
	L2MissByBucket [3]uint64 //vet:skip-invariant counted when a probe needs a fill, which mutates the hierarchy; requestWouldStall confines skips to the bare MSHR-full path
	StarvByBucket  [3]uint64

	// StarvedLineEvents counts distinct starvation events per line
	// (allocated when cfg.TrackReuse is set); IQEStarvedLineEvents
	// restricts to events with an empty issue queue (the paper's E
	// signal).
	StarvedLineEvents    map[uint64]uint32 //vet:skip-invariant edge-triggered once per miss (!m.starved guard); planSkip requires the marking already fired
	IQEStarvedLineEvents map[uint64]uint32 //vet:skip-invariant edge-triggered once per miss (!m.iqEmptySeen guard); planSkip requires the marking already fired
	MarkedLines          map[uint64]bool
	StarvOnMarkedMiss    uint64 //vet:skip-invariant edge-triggered once per miss (!m.starved guard); planSkip requires the marking already fired

	// Statistics.
	FTQOccupancySum           uint64
	FetchBlockFull            uint64
	FetchBlockDeadEnd         uint64
	FetchBlockPredecode       uint64
	MSHRFullEvents            uint64
	StarvEventsBySrc          [4]uint64 //vet:skip-invariant edge-triggered once per miss (!m.starved guard); planSkip requires the marking already fired
	StarvationCycles          uint64    // decode starved, any path
	StarvationIQECycles       uint64    // ... with the issue queue empty
	CommitStarvationCycles    uint64    // starved on a correct-path line
	CommitStarvationIQECycles uint64
	FetchStallCycles          uint64    // FTQ empty or BTB-fill pending
	Mispredicts               uint64    //vet:skip-invariant fetch-enqueue path; planSkip requires fetchBlock blocked
	MispredictsByKind         [8]uint64 //vet:skip-invariant fetch-enqueue path; planSkip requires fetchBlock blocked
	BlocksFetched             uint64    //vet:skip-invariant fetch-enqueue path; planSkip requires fetchBlock blocked
}

func newFrontend(cfg *Config, src trace.Source, hier *cache.Hierarchy, seed uint64) *frontend {
	spec := hier.Config().L2Policy
	f := &frontend{
		cfg:          cfg,
		src:          src,
		hier:         hier,
		sel:          spec.NewSelector(seed),
		useSelection: spec.UsesSelection(),
		btb:          branch.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		tage:         branch.NewTAGE(13),
		ittage:       branch.NewITTAGE(11),
		ras:          branch.NewRAS(cfg.RASDepth),
		ftq:          make([]ftqEntry, cfg.FTQEntries),
		pending:      make([]*mshrEntry, 0, cfg.MaxMSHRs),
		mshrSlab:     make([]mshrEntry, cfg.MaxMSHRs),
		mshrFree:     make([]*mshrEntry, cfg.MaxMSHRs),
		memArena:     make([]trace.MemRef, cfg.FTQEntries*trace.MaxBlockMem),
	}
	for i := range f.mshrSlab {
		f.mshrFree[i] = &f.mshrSlab[i]
	}
	f.rasSnap = f.ras.Snapshot()
	f.mrc = newMRC(cfg.MRCEntries)
	if cfg.TrackReuse {
		f.tracker = reuse.NewTracker(1 << 18)
		f.lastBucket = make(map[uint64]reuse.Bucket)
		f.StarvedLineEvents = make(map[uint64]uint32)
		f.IQEStarvedLineEvents = make(map[uint64]uint32)
		f.MarkedLines = make(map[uint64]bool)
	}
	return f
}

// head returns the oldest FTQ entry, or nil.
func (f *frontend) head() *ftqEntry {
	if f.ftqCount == 0 {
		return nil
	}
	return &f.ftq[f.ftqHead]
}

func (f *frontend) pop() {
	e := &f.ftq[f.ftqHead]
	f.ftqInstr -= e.n
	e.mem = nil
	f.ftqHead = wrap(f.ftqHead+1, f.cfg.FTQEntries)
	f.ftqCount--
	if f.scanDone > 0 {
		f.scanDone--
	}
}

func (f *frontend) full() bool {
	return f.ftqCount >= f.cfg.FTQEntries || f.ftqInstr >= f.cfg.FTQInstrCap
}

// requestLine issues an instruction-line request if the line is not
// already in flight; returns false when no MSHR is available. trackFig2
// attributes the access to the reuse tracker (correct-path accesses
// only).
func (f *frontend) requestLine(line uint64, now uint64, trackFig2 bool) bool {
	if trackFig2 && f.tracker != nil {
		if !f.haveReuseLine || f.lastReuseLine != line {
			b := reuse.Classify(f.tracker.Access(line))
			f.lastBucket[line] = b
			f.AccessByBucket[b]++
			f.lastReuseLine = line
			f.haveReuseLine = true
		}
	}
	if _, ok := f.lineBlocked(line); ok {
		return true
	}
	if len(f.pending) >= f.cfg.MaxMSHRs {
		f.MSHRFullEvents++
		return false
	}
	if f.mrc != nil && trackFig2 {
		if f.mrc.contains(line) {
			// Served by the recovery buffer: no miss penalty; install
			// the line through the hierarchy as a perfectly timely
			// fill. (The probe precedes observeRequest so a line only
			// hits on a *later* re-steer, never the request that
			// inserted it.)
			res := f.hier.ProbeFetch(line)
			if res.NeedFill {
				f.hier.CompleteFetch(line, res.Source, false)
			}
			f.predecodeLine(line)
			return true
		}
		f.mrc.observeRequest(line)
	}
	res := f.hier.ProbeFetch(line)
	if trackFig2 && f.tracker != nil && res.NeedFill && res.Source != cache.SrcL2 {
		f.L2MissByBucket[f.lastBucket[line]]++
	}
	if !res.NeedFill {
		f.predecodeLine(line)
		return true
	}
	// Past the MaxMSHRs check above fewer than MaxMSHRs entries are
	// live, so the free stack is non-empty and pending's reslice stays
	// within its preallocated capacity.
	nf := len(f.mshrFree) - 1
	m := f.mshrFree[nf]
	f.mshrFree = f.mshrFree[:nf]
	*m = mshrEntry{line: line, completeAt: now + uint64(res.Latency), src: res.Source}
	np := len(f.pending)
	f.pending = f.pending[:np+1]
	f.pending[np] = m
	return true
}

// predecodeLine is the proactive pre-decoder of §5.2: every fetched or
// prefetched instruction line has its basic-block boundaries extracted
// and installed in the BTB before the branch-prediction unit needs
// them, minimizing enqueue stalls.
func (f *frontend) predecodeLine(line uint64) {
	f.scratch = f.src.BlocksInLine(line, f.scratch[:0])
	for _, e := range f.scratch {
		if !f.btb.Probe(e.Start) {
			f.btb.Insert(e)
		}
	}
}

// processCompletions installs finished misses, evaluating EMISSARY's
// mode selection with the starvation observed while in flight.
func (f *frontend) processCompletions(now uint64) {
	if len(f.pending) == 0 {
		return
	}
	kept := 0
	for _, m := range f.pending {
		if m.completeAt > now {
			// In-place filter: survivors compact toward the front of
			// pending's backing array.
			f.pending[kept] = m
			kept++
			continue
		}
		high := false
		if f.useSelection {
			high = f.sel.Select(m.starved, m.starved && m.iqEmptySeen)
			if high && f.MarkedLines != nil {
				f.MarkedLines[m.line] = true
			}
		}
		f.hier.CompleteFetch(m.line, m.src, high)
		f.predecodeLine(m.line)
		nf := len(f.mshrFree)
		f.mshrFree = f.mshrFree[:nf+1]
		f.mshrFree[nf] = m
	}
	f.pending = f.pending[:kept]
}

// prefetchScan is FDIP: walk the FTQ issuing line requests ahead of
// decode, resuming after the scanDone entries already fully requested.
func (f *frontend) prefetchScan(now uint64) {
	idx := wrap(f.ftqHead+f.scanDone, f.cfg.FTQEntries)
	for ; f.scanDone < f.ftqCount; f.scanDone++ {
		e := &f.ftq[idx]
		for li := 0; li < e.nLines; li++ {
			if e.requested&(1<<uint(li)) != 0 {
				continue
			}
			if !f.requestLine(e.lines[li], now, !e.wrongPath) {
				return // MSHRs exhausted
			}
			e.requested |= 1 << uint(li)
		}
		idx = wrap(idx+1, f.cfg.FTQEntries)
	}
}

// ensureHeadLine is the demand path (and the no-FDIP mode): request
// the line decode is about to consume. Returns false when the request
// cannot be issued (MSHR pressure).
func (f *frontend) ensureHeadLine(e *ftqEntry, li int, now uint64) bool {
	if e.requested&(1<<uint(li)) != 0 {
		return true
	}
	if !f.requestLine(e.lines[li], now, !e.wrongPath) {
		return false
	}
	e.requested |= 1 << uint(li)
	return true
}

// lineBlocked reports whether the line is still in flight, returning
// the MSHR for starvation marking. A line has at most one live MSHR
// (requestLine merges repeats into it).
func (f *frontend) lineBlocked(line uint64) (*mshrEntry, bool) {
	for _, m := range f.pending {
		if m.line == line {
			return m, true
		}
	}
	return nil, false
}

// oracleNext pulls the next committed-path block.
func (f *frontend) oracleNext() (trace.BlockEvent, bool) {
	ev, ok := f.src.NextBlock()
	if !ok {
		f.oracleDone = true
	}
	return ev, ok
}

// fetchBlock runs one cycle of the branch-prediction unit: predict and
// enqueue up to one basic block (§5.2).
func (f *frontend) fetchBlock(now uint64) {
	f.FTQOccupancySum += uint64(f.ftqCount)
	if f.deadEnd {
		f.FetchBlockDeadEnd++
	} else if f.full() {
		f.FetchBlockFull++
	} else if f.predecodeBusy && now < f.predecodeAt {
		f.FetchBlockPredecode++
	}
	if f.deadEnd || f.oracleDone || f.full() {
		if f.predecodeBusy && now >= f.predecodeAt {
			f.btb.Insert(f.predecodeEntry)
			f.predecodeBusy = false
		}
		return
	}
	if f.predecodeBusy {
		if now < f.predecodeAt {
			return
		}
		f.btb.Insert(f.predecodeEntry)
		f.predecodeBusy = false
	}
	if !f.havePC {
		// Prime from the first oracle block.
		ev, ok := f.oracleNext()
		if !ok {
			return
		}
		f.nextPC = ev.Addr
		f.havePC = true
		f.primeEvent = ev
		f.havePrime = true
	}

	entry, ok := f.btb.Lookup(f.nextPC)
	if !ok {
		// BTB miss: stall enqueue, pre-decode the block, and prefetch
		// the next two fall-through lines (§5.2).
		info, exists := f.src.BlockInfo(f.nextPC)
		if !exists {
			f.deadEnd = true // speculative walk left the program
			if !f.wrongPath {
				// On the correct path the next oracle event would
				// start here; an unknown block means the stream ended
				// (finite traces and test programs).
				f.oracleDone = true
			}
			return
		}
		f.predecodeBusy = true
		f.predecodeAt = now + uint64(f.cfg.PredecodeLatency)
		f.predecodeEntry = info
		line := f.nextPC >> 6
		f.requestLine(line+1, now, false)
		f.requestLine(line+2, now, false)
		return
	}

	branchPC := entry.BranchPC()
	fallthrough_ := entry.FallThrough()
	predNext := fallthrough_
	switch entry.EndKind {
	case branch.KindFallthrough:
	case branch.KindCond:
		if f.tage.Predict(branchPC) {
			predNext = entry.Target
		}
	case branch.KindJump, branch.KindCall:
		predNext = entry.Target
	case branch.KindReturn:
		predNext, _ = f.ras.Peek()
	case branch.KindIndirect, branch.KindIndirectCall:
		if t, ok := f.ittage.Predict(branchPC); ok {
			predNext = t
		} else {
			predNext = 0
		}
	}

	e := ftqEntry{
		addr:    f.nextPC,
		n:       entry.NumInstrs,
		endKind: entry.EndKind,
	}

	if f.wrongPath {
		e.wrongPath = true
		f.applyRASOps(entry.EndKind, fallthrough_)
	} else {
		ev, ok := f.currentOracle()
		if !ok {
			return
		}
		if ev.Addr != f.nextPC {
			// The oracle stream and the correct-path fetch cursor must
			// agree; a divergence is a simulator bug.
			violated("oracle desynchronized from correct-path fetch: oracle %#x, cursor %#x", ev.Addr, f.nextPC)
		}
		// Train predictors with the architectural outcome.
		switch entry.EndKind {
		case branch.KindCond:
			f.tage.Update(branchPC, ev.Taken)
		case branch.KindIndirect, branch.KindIndirectCall:
			f.ittage.Update(branchPC, ev.NextAddr)
		}
		e.mem = ev.Mem
		if predNext != ev.NextAddr {
			e.mispredict = true
			f.Mispredicts++
			f.MispredictsByKind[entry.EndKind]++
			f.ras.SnapshotInto(&f.rasSnap)
			f.resteer = resteerState{
				pending:      true,
				correctNext:  ev.NextAddr,
				kind:         entry.EndKind,
				fallthrough_: fallthrough_,
			}
		}
		f.applyRASOps(entry.EndKind, fallthrough_)
		if e.mispredict {
			f.wrongPath = true
		}
	}

	// Enqueue.
	e.lines[0] = e.addr >> 6
	e.nLines = 1
	if last := (e.addr + 4*uint64(e.n) - 1) >> 6; last != e.lines[0] {
		e.lines[1] = last
		e.nLines = 2
	}
	slot := wrap(f.ftqHead+f.ftqCount, f.cfg.FTQEntries)
	if len(e.mem) > 0 {
		// e.mem still aliases the oracle event's buffer, which the next
		// NextBlock call invalidates; copy into the slot's arena region.
		if len(e.mem) > trace.MaxBlockMem {
			violated("block at %#x carries %d memory references, above trace.MaxBlockMem %d", e.addr, len(e.mem), trace.MaxBlockMem)
		}
		base := slot * trace.MaxBlockMem
		n := copy(f.memArena[base:base+trace.MaxBlockMem], e.mem)
		e.mem = f.memArena[base : base+n]
	}
	f.ftq[slot] = e
	f.ftqCount++
	f.ftqInstr += e.n
	f.BlocksFetched++

	f.nextPC = predNext
	if predNext == 0 {
		f.deadEnd = true
	}
}

// currentOracle returns the oracle event for the block being fetched,
// honoring the one-event priming buffer.
func (f *frontend) currentOracle() (trace.BlockEvent, bool) {
	if f.havePrime {
		f.havePrime = false
		return f.primeEvent, true
	}
	return f.oracleNext()
}

// applyRASOps performs the speculative return-stack effects of
// fetching a block.
func (f *frontend) applyRASOps(kind branch.Kind, fallthrough_ uint64) {
	switch {
	case kind.IsCall():
		f.ras.Push(fallthrough_)
	case kind == branch.KindReturn:
		f.ras.Pop()
	}
}

// recover re-steers the front-end after the mispredicted branch
// resolves: flush the FTQ (everything younger is wrong-path), restore
// the RAS, apply the branch's architectural stack effect, and resume
// at the correct target.
func (f *frontend) recover() {
	if !f.resteer.pending {
		// A resolve without a recorded re-steer would be a simulator
		// bug; recovering from nothing must not move the fetch PC.
		return
	}
	f.ftqHead = 0
	f.ftqCount = 0
	f.ftqInstr = 0
	f.scanDone = 0
	f.predecodeBusy = false
	f.ras.Restore(f.rasSnap)
	f.applyRASOps(f.resteer.kind, f.resteer.fallthrough_)
	f.nextPC = f.resteer.correctNext
	f.wrongPath = false
	f.deadEnd = false
	f.resteer = resteerState{}
	f.haveReuseLine = false
	if f.mrc != nil {
		f.mrc.onRecover()
	}
}

// reset restores the front-end to the state newFrontend would build
// for the same structural config, reusing every allocation. Core.Reset
// guarantees the sizing fields (FTQEntries, MaxMSHRs, MRCEntries,
// BTB/RAS geometry, TrackReuse) are unchanged; everything else —
// source, hierarchy, seed, selection spec — may differ per run.
//
//vet:hot
func (f *frontend) reset(src trace.Source, hier *cache.Hierarchy, seed uint64) {
	spec := hier.Config().L2Policy
	f.src = src
	f.hier = hier
	f.sel.Reset(spec, seed)
	f.useSelection = spec.UsesSelection()
	f.btb.Reset()
	f.tage.Reset()
	f.ittage.Reset()
	f.ras.Reset()
	clear(f.ftq)
	f.ftqHead = 0
	f.ftqCount = 0
	f.ftqInstr = 0
	f.scanDone = 0
	f.nextPC = 0
	f.havePC = false
	f.wrongPath = false
	f.deadEnd = false
	f.resteer = resteerState{}
	f.oracleDone = false
	f.predecodeBusy = false
	f.predecodeAt = 0
	f.predecodeEntry = branch.BTBEntry{}
	f.primeEvent = trace.BlockEvent{}
	f.havePrime = false
	f.pending = f.pending[:0]
	f.mshrFree = f.mshrFree[:len(f.mshrSlab)]
	for i := range f.mshrSlab {
		f.mshrFree[i] = &f.mshrSlab[i]
	}
	f.scratch = f.scratch[:0]
	if f.mrc != nil {
		f.mrc.reset()
	}
	if f.tracker != nil {
		f.tracker.Reset()
		clear(f.lastBucket)
		clear(f.StarvedLineEvents)
		clear(f.IQEStarvedLineEvents)
		clear(f.MarkedLines)
	}
	f.lastReuseLine = 0
	f.haveReuseLine = false
	f.AccessByBucket = [3]uint64{}
	f.L2MissByBucket = [3]uint64{}
	f.StarvByBucket = [3]uint64{}
	f.StarvOnMarkedMiss = 0
	f.FTQOccupancySum = 0
	f.FetchBlockFull = 0
	f.FetchBlockDeadEnd = 0
	f.FetchBlockPredecode = 0
	f.MSHRFullEvents = 0
	f.StarvEventsBySrc = [4]uint64{}
	f.StarvationCycles = 0
	f.StarvationIQECycles = 0
	f.CommitStarvationCycles = 0
	f.CommitStarvationIQECycles = 0
	f.FetchStallCycles = 0
	f.Mispredicts = 0
	f.MispredictsByKind = [8]uint64{}
	f.BlocksFetched = 0
}

// markStarvation records a decode-starvation cycle blocked on m.
func (f *frontend) markStarvation(m *mshrEntry, wrongPath, iqEmpty bool) {
	if f.StarvedLineEvents != nil && !wrongPath && !m.starved {
		f.StarvedLineEvents[m.line]++
	}
	if f.IQEStarvedLineEvents != nil && !wrongPath && iqEmpty && !m.iqEmptySeen {
		f.IQEStarvedLineEvents[m.line]++
	}
	if !m.starved && !wrongPath {
		f.StarvEventsBySrc[m.src]++
		if f.MarkedLines != nil && f.MarkedLines[m.line] && m.src != cache.SrcL2 {
			f.StarvOnMarkedMiss++
		}
	}
	m.starved = true
	if iqEmpty {
		m.iqEmptySeen = true
	}
	f.StarvationCycles++
	if iqEmpty {
		f.StarvationIQECycles++
	}
	if !wrongPath {
		f.CommitStarvationCycles++
		if iqEmpty {
			f.CommitStarvationIQECycles++
		}
		if f.tracker != nil {
			f.StarvByBucket[f.lastBucket[m.line]]++
		}
	}
}
