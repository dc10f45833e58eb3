package workload

import (
	"fmt"
	"math"

	"emissary/internal/branch"
	"emissary/internal/rng"
	"emissary/internal/trace"
)

// Address-space layout. Instruction addresses are 4-byte aligned
// (fixed-width encoding, §5.2); the data pools live far above code.
const (
	instrBytes = 4
	codeBase   = uint64(0x0001_0000_0000)
	stackBase  = uint64(0x7000_0000_0000)
	hotBase    = uint64(0x6000_0000_0000)
	coldBase   = uint64(0x5000_0000_0000)

	// blockMaxInstr caps basic-block size (a BTB entry's size field).
	blockMaxInstr = 14
)

// Behavior tells the engine how a conditional terminator resolves.
type Behavior uint8

// Behaviors.
const (
	BehaveNone   Behavior = iota
	BehaveLoop            // back-edge, taken while trips remain
	BehaveBiased          // data-dependent, P(taken) = Bias
)

// Block is one static basic block. Blocks are laid out contiguously
// from codeBase in index order, so block i+1 starts at block i's
// fall-through address. The struct holds no pointers: indirect targets
// live in the program's side table, and every static successor is
// linked to a block index when the program is built.
type Block struct {
	Addr      uint64
	Target    uint64 // taken/call target
	Bias      float32
	MeanTrips float32
	NInstr    uint16
	End       branch.Kind
	Behavior  Behavior

	target int32 // block index of Target (cond, jump and call terminators)
	aux    int32 // BehaveLoop: loop-trip slot; indirect: first entry in Program.itargets
	nAux   int32 // indirect: number of targets
}

// FallThrough returns the next sequential block's address.
func (b *Block) FallThrough() uint64 {
	return b.Addr + instrBytes*uint64(b.NInstr)
}

// BranchPC returns the terminator's address.
func (b *Block) BranchPC() uint64 {
	return b.Addr + instrBytes*uint64(b.NInstr-1)
}

// Program is a complete synthetic binary: the static CFG plus the
// behavioral metadata the engine executes. Every table is dense and
// indexed by block, line or instruction number, so no query on the
// engine's or front-end's per-block path hashes.
type Program struct {
	profile Profile

	blocks []Block
	// lineFirst[k] is the index of the first block starting at or after
	// code line k (address codeBase + 64k); its last entry is
	// len(blocks). The blocks starting in line k are therefore
	// blocks[lineFirst[k]:lineFirst[k+1]].
	lineFirst []int32
	itargets  []int32 // indirect-terminator targets, as block indices
	numLoops  int     // loop-trip slots (one per BehaveLoop block)

	dispatcher     int32   // dispatch-loop head block
	services       []int32 // service entry blocks (the dispatcher's targets)
	serviceChooser *rng.Chooser

	totalInstrs int
	classSeed   uint64
	// classCut holds classOf's cumulative instruction-mix thresholds
	// (load, store, mul, fp; anything above is ALU).
	classCut [4]float64
	// classes caches InstrClass for every PC in the code span, indexed
	// by (pc-codeBase)/instrBytes. The class is a pure function of the
	// PC, so the table is exactly the hash's output precomputed (one
	// byte per instruction).
	classes []trace.Class
}

// Profile returns the generating profile.
func (p *Program) Profile() Profile { return p.profile }

// NumBlocks returns the static block count.
func (p *Program) NumBlocks() int { return len(p.blocks) }

// TotalInstrs returns the static instruction count.
func (p *Program) TotalInstrs() int { return p.totalInstrs }

// FootprintBytes returns the instruction footprint (Fig 4's metric is
// unique lines touched x line size; the static size is its upper
// bound and, for these workloads, its steady-state value).
func (p *Program) FootprintBytes() int { return p.totalInstrs * instrBytes }

// lineRange returns the block-index range of the blocks starting in
// code line line (an absolute line number, address>>6); it is empty
// for lines outside the code span.
func (p *Program) lineRange(line uint64) (int32, int32) {
	// Lines below the span wrap around to huge k and fail the bound.
	k := line - codeBase>>6
	if k >= uint64(len(p.lineFirst)-1) {
		return 0, 0
	}
	return p.lineFirst[k], p.lineFirst[k+1]
}

// blockIndex returns the index of the block starting at addr.
func (p *Program) blockIndex(addr uint64) (int32, bool) {
	lo, hi := p.lineRange(addr >> 6)
	for i := lo; i < hi; i++ {
		if a := p.blocks[i].Addr; a >= addr {
			return i, a == addr
		}
	}
	return 0, false
}

// BlockAt returns the static block starting at addr.
func (p *Program) BlockAt(addr uint64) (*Block, bool) {
	if i, ok := p.blockIndex(addr); ok {
		return &p.blocks[i], true
	}
	return nil, false
}

// btbEntry is b's static descriptor as the front-end sees it.
func (b *Block) btbEntry() branch.BTBEntry {
	return branch.BTBEntry{
		Start:     b.Addr,
		NumInstrs: int(b.NInstr),
		EndKind:   b.End,
		Target:    b.Target,
	}
}

// BlockInfo implements the static-descriptor query of trace.Source.
func (p *Program) BlockInfo(addr uint64) (branch.BTBEntry, bool) {
	i, ok := p.blockIndex(addr)
	if !ok {
		return branch.BTBEntry{}, false
	}
	return p.blocks[i].btbEntry(), true
}

// BlocksInLine implements trace.Source's pre-decoder query: all blocks
// starting within the 64-byte line, read straight off the line table.
func (p *Program) BlocksInLine(line uint64, out []branch.BTBEntry) []branch.BTBEntry {
	lo, hi := p.lineRange(line)
	for i := lo; i < hi; i++ {
		out = append(out, p.blocks[i].btbEntry())
	}
	return out
}

// InstrClass returns the static class of the instruction at pc. Block
// terminators are classified by the front-end from the block
// descriptor; for body instructions the class is a deterministic hash
// of the PC thresholded by the profile's instruction mix. In-span PCs
// — every PC the engine ever emits — are served from the per-PC table
// NewProgram builds; anything else falls back to the hash, so both
// paths return identical values by construction.
//
//vet:hot
func (p *Program) InstrClass(pc uint64) trace.Class {
	if off := pc - codeBase; off&(instrBytes-1) == 0 {
		if i := off / instrBytes; i < uint64(len(p.classes)) {
			return p.classes[i]
		}
	}
	return p.classOf(pc)
}

// classOf is the hash behind InstrClass; NewProgram evaluates it once
// per PC to fill the table.
func (p *Program) classOf(pc uint64) trace.Class {
	h := rng.Mix2(p.classSeed, pc)
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < p.classCut[0]:
		return trace.ClassLoad
	case u < p.classCut[1]:
		return trace.ClassStore
	case u < p.classCut[2]:
		return trace.ClassMul
	case u < p.classCut[3]:
		return trace.ClassFP
	default:
		return trace.ClassALU
	}
}

// memPool classifies a memory instruction's pool (stable per PC).
type memPool uint8

const (
	poolStack memPool = iota
	poolHot
	poolCold
)

func (p *Program) poolOf(pc uint64) memPool {
	h := rng.Mix2(p.classSeed^0xda7a, pc)
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < p.profile.StackFrac:
		return poolStack
	case u < p.profile.StackFrac+p.profile.ColdFrac:
		return poolCold
	default:
		return poolHot
	}
}

// generator carries program-synthesis state.
type generator struct {
	prog *Program
	r    *rng.Xoshiro256
	next uint64 // next block address
	// itargets collects indirect-terminator targets as addresses while
	// the layout grows; link resolves them into Program.itargets.
	itargets []uint64
}

// NewProgram synthesizes the static program for a profile.
func NewProgram(profile Profile) (*Program, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	prog := &Program{
		profile:   profile,
		classSeed: rng.Mix2(profile.Seed, 0xc1a55),
	}
	g := &generator{
		prog: prog,
		r:    rng.NewXoshiro256(rng.Mix2(profile.Seed, 0xc0de)),
		next: codeBase,
	}

	targetInstrs := int(profile.FootprintMB * 1024 * 1024 / instrBytes)
	hotBudget := int(float64(targetInstrs) * profile.HotLibFrac)
	// Presize the block table: blockSize's cap at blockMaxInstr and the
	// two-instruction return blocks pull the mean block below the
	// profile's (6.2 instructions at a mean of 7), so this estimate
	// covers the stock profiles with ~10% to spare.
	prog.blocks = make([]Block, 0, targetInstrs*5/(4*profile.AvgBlockInstr)+1024)

	// 1. Hot shared library: small leaf utility functions.
	var hotEntries []uint64
	for used := 0; used < hotBudget; {
		size := 24 + g.r.Intn(48)
		entry, n := g.buildFunction(size, nil, nil)
		hotEntries = append(hotEntries, entry)
		used += n
	}
	if len(hotEntries) == 0 {
		// Degenerate profiles still need at least one callee.
		entry, _ := g.buildFunction(24, nil, nil)
		hotEntries = append(hotEntries, entry)
	}

	// 2. Services: each is a call tree over private functions that
	// also leans on the hot library.
	serviceBudget := (targetInstrs - hotBudget) / profile.NumServices
	if serviceBudget < 64 {
		serviceBudget = 64
	}
	var serviceEntries []uint64
	for s := 0; s < profile.NumServices; s++ {
		serviceEntries = append(serviceEntries, g.buildService(serviceBudget, hotEntries))
	}
	// The tree builder under-spends its budget (leftover child shares
	// below the minimum function size are dropped); top the program up
	// with extra services until the footprint target is met, keeping
	// Figure 4 calibrated.
	for prog.totalInstrs < targetInstrs-serviceBudget/2 {
		serviceEntries = append(serviceEntries, g.buildService(serviceBudget, hotEntries))
	}

	// 3. Dispatcher: an infinite loop indirect-calling one service per
	// iteration, with Zipf-distributed popularity.
	weights := make([]float64, len(serviceEntries))
	for i := range weights {
		weights[i] = zipfWeight(i, profile.ServiceZipf)
	}
	prog.serviceChooser = rng.NewChooser(weights)

	prog.dispatcher = int32(len(prog.blocks))
	head := g.addIndirect(Block{NInstr: 4, End: branch.KindIndirectCall}, serviceEntries)
	g.addBlock(Block{
		NInstr: 2,
		End:    branch.KindJump,
		Target: head,
	})

	if err := g.link(); err != nil {
		return nil, err
	}
	dispatcher := &prog.blocks[prog.dispatcher]
	prog.services = prog.itargets[dispatcher.aux : dispatcher.aux+dispatcher.nAux]
	prog.buildClassTable()
	return prog, nil
}

// link resolves every static successor to a block index, builds the
// per-line block table and numbers the loop-trip slots. Any successor
// that is not a block start is a generator bug and fails the build,
// which is what lets the engine follow indices without a recovery path.
func (g *generator) link() error {
	p := g.prog
	n := len(p.blocks)
	if n == 0 {
		return fmt.Errorf("workload %s: generated empty program", p.profile.Name)
	}
	// codeBase is line-aligned, so line k of the span starts at
	// codeBase + 64k; the final entry is the len(blocks) sentinel.
	end := codeBase + instrBytes*uint64(p.totalInstrs)
	p.lineFirst = make([]int32, (end-codeBase+63)>>6+1)
	i := 0
	for k := range p.lineFirst {
		lo := codeBase + uint64(k)<<6
		for i < n && p.blocks[i].Addr < lo {
			i++
		}
		p.lineFirst[k] = int32(i)
	}

	resolve := func(b *Block, addr uint64, what string) (int32, error) {
		if t, ok := p.blockIndex(addr); ok {
			return t, nil
		}
		return 0, fmt.Errorf("workload %s: block %#x: %s %#x is not a block start", p.profile.Name, b.Addr, what, addr)
	}
	p.itargets = make([]int32, len(g.itargets))
	for i := range p.blocks {
		b := &p.blocks[i]
		switch b.End {
		case branch.KindFallthrough, branch.KindCond, branch.KindCall, branch.KindIndirectCall:
			// The fall-through (or return site) is block i+1.
			if i+1 == n || p.blocks[i+1].Addr != b.FallThrough() {
				return fmt.Errorf("workload %s: block %#x: fall-through %#x is not a block start", p.profile.Name, b.Addr, b.FallThrough())
			}
		}
		switch b.End {
		case branch.KindCond, branch.KindJump, branch.KindCall:
			t, err := resolve(b, b.Target, "target")
			if err != nil {
				return err
			}
			b.target = t
		case branch.KindIndirectCall, branch.KindIndirect:
			for j := b.aux; j < b.aux+b.nAux; j++ {
				t, err := resolve(b, g.itargets[j], "indirect target")
				if err != nil {
					return err
				}
				p.itargets[j] = t
			}
		}
		if b.Behavior == BehaveLoop {
			b.aux = int32(p.numLoops)
			p.numLoops++
		}
	}
	return nil
}

// buildClassTable precomputes the class of every instruction in the
// code span (blocks are laid out contiguously from codeBase, so index
// i maps to PC codeBase + instrBytes*i). The front-end classifies
// every body instruction of every fetched block, making the class
// hash one of the hottest pure functions in the simulator; the table
// turns it into a byte load for one hash pass over the static
// footprint at build time.
func (p *Program) buildClassTable() {
	f := &p.profile
	memFrac := f.LoadFrac + f.StoreFrac
	p.classCut = [4]float64{f.LoadFrac, memFrac, memFrac + 0.08, memFrac + 0.14}
	p.classes = make([]trace.Class, p.totalInstrs)
	for i := range p.classes {
		p.classes[i] = p.classOf(codeBase + instrBytes*uint64(i))
	}
}

// zipfWeight gives rank i (0-based) weight 1/(i+1)^s.
func zipfWeight(i int, s float64) float64 {
	if s <= 0 {
		return 1.0
	}
	return 1.0 / math.Pow(float64(i+1), s)
}

// addBlock appends a block at the next address and returns its address.
func (g *generator) addBlock(b Block) uint64 {
	b.Addr = g.next
	if b.NInstr == 0 {
		b.NInstr = 1
	}
	if b.NInstr > blockMaxInstr {
		b.NInstr = blockMaxInstr
	}
	g.prog.blocks = append(g.prog.blocks, b)
	g.prog.totalInstrs += int(b.NInstr)
	g.next += instrBytes * uint64(b.NInstr)
	return b.Addr
}

// addIndirect appends an indirect-terminated block whose targets are
// the given block addresses.
func (g *generator) addIndirect(b Block, targets []uint64) uint64 {
	b.aux = int32(len(g.itargets))
	b.nAux = int32(len(targets))
	g.itargets = append(g.itargets, targets...)
	return g.addBlock(b)
}

// blockSize draws a block size around the profile mean.
func (g *generator) blockSize() uint16 {
	mean := g.prog.profile.AvgBlockInstr
	n := 2 + g.r.Geometric(float64(mean-2))
	if n > blockMaxInstr {
		n = blockMaxInstr
	}
	return uint16(n)
}

// callSite is a call the function body must embed.
type callSite struct {
	target   uint64
	variants []uint64 // non-empty: indirect call among variants
}

// buildFunction lays out one function of roughly ownInstrs body
// instructions embedding the given call sites, returning its entry
// address and the instructions actually emitted.
func (g *generator) buildFunction(ownInstrs int, calls []callSite, hotEntries []uint64) (uint64, int) {
	p := g.prog.profile
	entry := uint64(0)
	emitted := 0
	callIdx := 0

	record := func(addr uint64) {
		if entry == 0 {
			entry = addr
		}
	}

	for emitted < ownInstrs || callIdx < len(calls) {
		switch {
		case callIdx < len(calls) && (emitted >= ownInstrs || g.r.Bool(0.35)):
			// Call block.
			cs := calls[callIdx]
			callIdx++
			b := Block{NInstr: g.blockSize()}
			if len(cs.variants) > 0 {
				b.End = branch.KindIndirectCall
				record(g.addIndirect(b, cs.variants))
			} else {
				b.End = branch.KindCall
				b.Target = cs.target
				record(g.addBlock(b))
			}
			emitted += int(b.NInstr)

		case g.r.Bool(p.LoopFrac):
			// Loop: 1-2 body blocks, back edge on the last.
			bodyBlocks := 1 + g.r.Intn(2)
			var head uint64
			for i := 0; i < bodyBlocks; i++ {
				if i == bodyBlocks-1 {
					// Per-loop trip counts are fixed at build time:
					// real loops mostly iterate the same number of
					// times per activation, a pattern history-based
					// predictors learn.
					trips := 2 + g.r.Geometric(p.AvgLoopTrips-2)
					b := Block{
						NInstr:    g.blockSize(),
						End:       branch.KindCond,
						Behavior:  BehaveLoop,
						MeanTrips: float32(trips),
					}
					addr := g.addBlock(b)
					if i == 0 {
						head = addr
					}
					g.prog.blocks[len(g.prog.blocks)-1].Target = head
					record(addr)
					emitted += int(b.NInstr)
				} else {
					b := Block{NInstr: g.blockSize(), End: branch.KindFallthrough}
					addr := g.addBlock(b)
					if i == 0 {
						head = addr
					}
					record(addr)
					emitted += int(b.NInstr)
				}
			}

		case g.r.Bool(0.45):
			// Diamond: cond skips the next block.
			hard := g.r.Bool(p.HardBranchFrac)
			bias := 0.995 // error paths, null checks: essentially static
			if hard {
				bias = p.HardBranchBias
			}
			cond := Block{
				NInstr:   g.blockSize(),
				End:      branch.KindCond,
				Behavior: BehaveBiased,
				Bias:     float32(bias),
			}
			condIdx := len(g.prog.blocks)
			record(g.addBlock(cond))
			emitted += int(cond.NInstr)
			then := Block{NInstr: g.blockSize(), End: branch.KindFallthrough}
			g.addBlock(then)
			emitted += int(then.NInstr)
			// Taken path skips the then-block.
			g.prog.blocks[condIdx].Target = g.next

		case len(hotEntries) > 0 && g.r.Bool(0.25):
			// Utility call into the hot library.
			b := Block{
				NInstr: g.blockSize(),
				End:    branch.KindCall,
				Target: hotEntries[g.r.Intn(len(hotEntries))],
			}
			record(g.addBlock(b))
			emitted += int(b.NInstr)

		default:
			b := Block{NInstr: g.blockSize(), End: branch.KindFallthrough}
			record(g.addBlock(b))
			emitted += int(b.NInstr)
		}
	}

	// Terminating return block.
	ret := Block{NInstr: 2, End: branch.KindReturn}
	record(g.addBlock(ret))
	emitted += int(ret.NInstr)

	return entry, emitted
}

// buildService generates one service: a strict call tree of private
// functions (each private function called from exactly one site, so a
// request touches the whole tree once) decorated with hot-library
// calls and indirect-call variant groups.
func (g *generator) buildService(budget int, hotEntries []uint64) uint64 {
	p := g.prog.profile
	// Reserve a slice of the budget for variant leaves.
	variantShare := 0.2
	leafBudget := int(float64(budget) * variantShare)
	treeBudget := budget - leafBudget

	// Build a variant group: V sibling leaf functions targeted by one
	// indirect call site.
	var variantGroup []uint64
	if p.VariantFanout > 1 && leafBudget > 48 {
		per := leafBudget / p.VariantFanout
		if per < 24 {
			per = 24
		}
		for v := 0; v < p.VariantFanout; v++ {
			entry, _ := g.buildFunction(per, nil, hotEntries)
			variantGroup = append(variantGroup, entry)
		}
	}

	return g.buildTree(treeBudget, variantGroup, hotEntries, 0)
}

// buildTree recursively builds the service call tree bottom-up.
func (g *generator) buildTree(budget int, variants []uint64, hotEntries []uint64, depth int) uint64 {
	own := 60 + g.r.Intn(120)
	if own > budget {
		own = budget
	}
	remaining := budget - own

	var calls []callSite
	if depth < 5 && remaining > 96 {
		nChildren := 1 + g.r.Intn(3)
		per := remaining / nChildren
		for c := 0; c < nChildren; c++ {
			if per < 64 {
				break
			}
			child := g.buildTree(per, nil, hotEntries, depth+1)
			calls = append(calls, callSite{target: child})
		}
	}
	if len(variants) > 0 {
		calls = append(calls, callSite{variants: variants})
	}

	entry, _ := g.buildFunction(own, calls, hotEntries)
	return entry
}
