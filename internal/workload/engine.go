package workload

import (
	"emissary/internal/branch"
	"emissary/internal/rng"
	"emissary/internal/trace"
)

// Engine executes a Program, producing the oracle committed-path
// stream of basic-block events (implementing trace.Source). The walk
// is unbounded — the dispatcher loops forever — so callers stop after
// however many instructions they want.
type Engine struct {
	prog *Program
	r    *rng.Xoshiro256

	cur   int32   // current block index
	stack []int32 // return-site block indices
	// trips holds each loop's remaining trip count by loop slot
	// (Block.aux); 0 means the loop is not in progress.
	trips []int32

	// Per-request data state.
	recordBase   uint64
	recordCursor uint64
	requests     uint64

	instrs uint64
	memBuf []trace.MemRef
}

// NewEngine starts an execution of prog at its dispatcher.
func NewEngine(prog *Program) *Engine {
	e := &Engine{
		prog:  prog,
		r:     rng.NewXoshiro256(rng.Mix2(prog.profile.Seed, 0xe4617e)),
		cur:   prog.dispatcher,
		trips: make([]int32, prog.numLoops),
		stack: make([]int32, 0, 64),
	}
	e.newRecord()
	return e
}

// Reset restarts the engine at prog's dispatcher, reusing every
// allocation: the architectural state afterwards is byte-identical to
// what NewEngine(prog) would build. prog must come from the same
// warm-pool slot or be freshly built; the engine never mutates it.
//
//vet:hot
func (e *Engine) Reset(prog *Program) {
	e.prog = prog
	e.r.Seed(rng.Mix2(prog.profile.Seed, 0xe4617e))
	e.cur = prog.dispatcher
	e.stack = e.stack[:0]
	if cap(e.trips) < prog.numLoops {
		//lint:ignore hot-noalloc the loop-slot table is grow-only: it reallocates only when a slot's program has more loops than any program it ran before, and a warm slot reruns the same program
		e.trips = make([]int32, prog.numLoops)
	} else {
		e.trips = e.trips[:prog.numLoops]
		clear(e.trips)
	}
	e.recordBase = 0
	e.recordCursor = 0
	e.requests = 0
	e.instrs = 0
	e.memBuf = e.memBuf[:0]
	e.newRecord()
}

// Instructions returns the committed instruction count so far.
func (e *Engine) Instructions() uint64 { return e.instrs }

// Requests returns the number of dispatched requests so far.
func (e *Engine) Requests() uint64 { return e.requests }

// BlockInfo implements trace.Source.
func (e *Engine) BlockInfo(addr uint64) (branch.BTBEntry, bool) {
	return e.prog.BlockInfo(addr)
}

// InstrClass implements trace.Source.
func (e *Engine) InstrClass(pc uint64) trace.Class {
	return e.prog.InstrClass(pc)
}

// BlocksInLine implements trace.Source.
func (e *Engine) BlocksInLine(line uint64, out []branch.BTBEntry) []branch.BTBEntry {
	return e.prog.BlocksInLine(line, out)
}

// newRecord rotates the per-request record pointer within the cold
// data pool.
func (e *Engine) newRecord() {
	span := uint64(e.prog.profile.ColdDataMB * 1024 * 1024)
	rec := uint64(e.prog.profile.RecordKB) * 1024
	if span <= rec {
		e.recordBase = coldBase
		return
	}
	slots := span / rec
	e.recordBase = coldBase + rec*uint64(e.r.Int63n(int64(slots)))
}

// dataAddr generates the byte address for the memory instruction at
// pc. Heap accesses have per-PC spatial affinity — each static memory
// instruction prefers a home region it strides around, with an
// occasional excursion across the whole pool — which is what gives
// real programs their L1D hit rates.
func (e *Engine) dataAddr(pc uint64) uint64 {
	switch e.prog.poolOf(pc) {
	case poolStack:
		// Hot per-frame slots: depth-scaled base plus a per-PC slot.
		frame := stackBase - uint64(len(e.stack))*256
		return frame + (rng.Mix2(pc, 0x57ac)&0x1f)*8
	case poolCold:
		// Records are scanned roughly sequentially (parse/serialize
		// passes), the pattern next-line prefetchers are built for.
		off := e.recordCursor % uint64(e.prog.profile.RecordKB*1024)
		e.recordCursor += 24
		return e.recordBase + off&^7
	default:
		pool := uint64(e.prog.profile.HotDataKB) * 1024
		if e.r.Bool(0.2) {
			// Pool-wide excursion: the long-reuse tail of the heap.
			return hotBase + uint64(e.r.Int63n(int64(pool)))&^7
		}
		// Home region: a per-PC 512-byte window.
		home := rng.Mix2(pc, 0x40e) % pool &^ 511
		return hotBase + home + uint64(e.r.Intn(512))&^7
	}
}

// NextBlock implements trace.Source: emit the current block's event
// and advance the architectural state.
func (e *Engine) NextBlock() (trace.BlockEvent, bool) {
	b := &e.prog.blocks[e.cur]
	ev := trace.BlockEvent{
		Addr:      b.Addr,
		NumInstrs: int(b.NInstr),
		EndKind:   b.End,
	}

	// Memory references for body instructions.
	e.memBuf = e.memBuf[:0]
	n := int(b.NInstr)
	bodyEnd := n
	if b.End != branch.KindFallthrough {
		bodyEnd = n - 1 // terminator is a branch, not a memory op
	}
	for i := 0; i < bodyEnd; i++ {
		pc := b.Addr + instrBytes*uint64(i)
		switch e.prog.InstrClass(pc) {
		case trace.ClassLoad:
			//lint:ignore hot-noalloc memBuf is rewound to [:0] per block and capped by MaxBlockMem refs, so capacity is reached within the first few blocks and never grows again
			e.memBuf = append(e.memBuf, trace.MemRef{Index: i, Addr: e.dataAddr(pc)})
		case trace.ClassStore:
			//lint:ignore hot-noalloc same MaxBlockMem-bounded scratch as the load arm above
			e.memBuf = append(e.memBuf, trace.MemRef{Index: i, Addr: e.dataAddr(pc), Store: true})
		}
	}
	if len(e.memBuf) > 0 {
		// Hand out the scratch buffer directly; the Source contract
		// makes Mem valid only until the next NextBlock call.
		ev.Mem = e.memBuf
	}

	// Resolve the successor. Every link was checked by NewProgram, and a
	// fall-through or return site is always the next block.
	cur := e.cur
	var next int32
	switch b.End {
	case branch.KindFallthrough:
		next = cur + 1
	case branch.KindJump:
		next = b.target
		ev.Taken = true
	case branch.KindCond:
		taken := false
		switch b.Behavior {
		case BehaveLoop:
			rem := e.trips[b.aux]
			if rem == 0 {
				rem = int32(b.MeanTrips)
			}
			if rem > 1 {
				taken = true
				e.trips[b.aux] = rem - 1
			} else {
				e.trips[b.aux] = 0
			}
		default: // BehaveBiased
			taken = e.r.Bool(float64(b.Bias))
		}
		ev.Taken = taken
		if taken {
			next = b.target
		} else {
			next = cur + 1
		}
	case branch.KindCall:
		//lint:ignore hot-noalloc the return stack starts at capacity 64 and doubles to the program's maximum call depth, a static property of the generated call tree
		e.stack = append(e.stack, cur+1)
		next = b.target
		ev.Taken = true
	case branch.KindIndirectCall, branch.KindIndirect:
		if b.End == branch.KindIndirectCall {
			//lint:ignore hot-noalloc same call-depth-bounded stack as the direct-call arm above
			e.stack = append(e.stack, cur+1)
		}
		if cur == e.prog.dispatcher {
			// New request: pick a service and rotate the data record.
			next = e.prog.services[e.prog.serviceChooser.Choose(e.r)]
			e.requests++
			e.newRecord()
		} else {
			next = e.prog.itargets[b.aux+int32(e.r.Intn(int(b.nAux)))]
		}
		ev.Taken = true
	case branch.KindReturn:
		if len(e.stack) > 0 {
			next = e.stack[len(e.stack)-1]
			e.stack = e.stack[:len(e.stack)-1]
		} else {
			next = e.prog.dispatcher
		}
		ev.Taken = true
	}

	ev.NextAddr = e.prog.blocks[next].Addr
	e.cur = next
	e.instrs += uint64(b.NInstr)
	return ev, true
}
