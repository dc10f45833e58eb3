package workload

import (
	"math"
	"testing"

	"emissary/internal/branch"
	"emissary/internal/reuse"
	"emissary/internal/trace"
)

func TestProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 13 {
		t.Fatalf("got %d profiles, want 13", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("tomcat")
	if !ok || p.Name != "tomcat" {
		t.Fatalf("tomcat lookup failed")
	}
	if _, ok := ProfileByName("doom"); ok {
		t.Error("unknown profile found")
	}
	if len(ProfileNames()) != 13 {
		t.Error("ProfileNames wrong length")
	}
}

func TestProfileValidateRejects(t *testing.T) {
	bad := base("bad", 1)
	bad.FootprintMB = -1
	if bad.Validate() == nil {
		t.Error("negative footprint accepted")
	}
	bad = base("bad", 1)
	bad.LoadFrac = 0.9
	if bad.Validate() == nil {
		t.Error("implausible load fraction accepted")
	}
	bad = base("", 1)
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
}

func smallProfile() Profile {
	p := base("test-small", 42)
	p.FootprintMB = 0.08
	p.NumServices = 4
	return p
}

func TestProgramFootprintNearTarget(t *testing.T) {
	for _, name := range []string{"xapian", "tomcat", "verilator"} {
		p, _ := ProfileByName(name)
		prog, err := NewProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := float64(prog.FootprintBytes()) / (1024 * 1024)
		if math.Abs(got-p.FootprintMB)/p.FootprintMB > 0.30 {
			t.Errorf("%s footprint = %.2f MB, want within 30%% of %.2f", name, got, p.FootprintMB)
		}
	}
}

func TestProgramCFGClosed(t *testing.T) {
	prog, err := NewProgram(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	// Every block's static successors must be block starts, and every
	// build-time link must name the block at its address.
	for i := range prog.blocks {
		b := &prog.blocks[i]
		check := func(addr uint64, what string) {
			if _, ok := prog.BlockAt(addr); !ok {
				t.Fatalf("block %#x: %s %#x is not a block start", b.Addr, what, addr)
			}
		}
		checkLink := func(idx int32, addr uint64, what string) {
			check(addr, what)
			if got := prog.blocks[idx].Addr; got != addr {
				t.Fatalf("block %#x: %s linked to block %#x, want %#x", b.Addr, what, got, addr)
			}
		}
		switch b.End {
		case branch.KindFallthrough:
			checkLink(int32(i+1), b.FallThrough(), "fallthrough")
		case branch.KindCond:
			checkLink(int32(i+1), b.FallThrough(), "fallthrough")
			checkLink(b.target, b.Target, "taken target")
		case branch.KindJump:
			checkLink(b.target, b.Target, "jump target")
		case branch.KindCall:
			checkLink(b.target, b.Target, "call target")
			checkLink(int32(i+1), b.FallThrough(), "return site")
		case branch.KindIndirectCall, branch.KindIndirect:
			if b.nAux == 0 {
				t.Fatalf("block %#x: indirect with no targets", b.Addr)
			}
			for _, tgt := range prog.itargets[b.aux : b.aux+b.nAux] {
				check(prog.blocks[tgt].Addr, "indirect target")
			}
			if b.End == branch.KindIndirectCall {
				checkLink(int32(i+1), b.FallThrough(), "return site")
			}
		case branch.KindReturn:
			// successor dynamic
		}
	}
}

func TestProgramBlocksContiguousAndBounded(t *testing.T) {
	prog, err := NewProgram(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd uint64 = codeBase
	for i := range prog.blocks {
		b := &prog.blocks[i]
		if b.Addr != prevEnd {
			t.Fatalf("block %d at %#x, expected %#x (contiguous layout)", i, b.Addr, prevEnd)
		}
		if b.NInstr < 1 || b.NInstr > blockMaxInstr {
			t.Fatalf("block %#x size %d out of bounds", b.Addr, b.NInstr)
		}
		prevEnd = b.FallThrough()
	}
}

func TestBlockInfoMatchesBlocks(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	b := &prog.blocks[3]
	e, ok := prog.BlockInfo(b.Addr)
	if !ok {
		t.Fatal("BlockInfo miss for known block")
	}
	if e.Start != b.Addr || e.NumInstrs != int(b.NInstr) || e.EndKind != b.End {
		t.Errorf("BlockInfo = %+v for block %+v", e, b)
	}
	if _, ok := prog.BlockInfo(b.Addr + 1); ok {
		t.Error("BlockInfo hit on a non-block address")
	}
}

func TestEngineStreamStaysOnCFG(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	e := NewEngine(prog)
	prev := trace.BlockEvent{}
	for i := 0; i < 20000; i++ {
		ev, ok := e.NextBlock()
		if !ok {
			t.Fatal("stream ended")
		}
		if _, ok := prog.BlockAt(ev.Addr); !ok {
			t.Fatalf("event %d at non-block address %#x", i, ev.Addr)
		}
		if i > 0 && prev.NextAddr != ev.Addr {
			t.Fatalf("event %d: previous successor %#x but block is %#x", i, prev.NextAddr, ev.Addr)
		}
		prev = ev
	}
	if e.Instructions() == 0 || e.Requests() == 0 {
		t.Error("engine made no progress")
	}
}

func TestEngineDeterministic(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	a, b := NewEngine(prog), NewEngine(prog)
	for i := 0; i < 5000; i++ {
		ea, _ := a.NextBlock()
		eb, _ := b.NextBlock()
		if ea.Addr != eb.Addr || ea.NextAddr != eb.NextAddr || ea.Taken != eb.Taken {
			t.Fatalf("engines diverged at event %d", i)
		}
	}
}

func TestEngineCallReturnBalance(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	e := NewEngine(prog)
	depth := 0
	maxDepth := 0
	for i := 0; i < 100000; i++ {
		ev, _ := e.NextBlock()
		switch ev.EndKind {
		case branch.KindCall, branch.KindIndirectCall:
			depth++
		case branch.KindReturn:
			depth--
		}
		if depth > maxDepth {
			maxDepth = depth
		}
		if depth < 0 {
			t.Fatalf("event %d: more returns than calls", i)
		}
	}
	if maxDepth < 2 {
		t.Errorf("max call depth = %d, expected a real call tree", maxDepth)
	}
	if maxDepth > 64 {
		t.Errorf("max call depth = %d, implausibly deep", maxDepth)
	}
}

func TestEngineMemRefsMatchClasses(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	e := NewEngine(prog)
	for i := 0; i < 5000; i++ {
		ev, _ := e.NextBlock()
		for _, m := range ev.Mem {
			pc := ev.Addr + 4*uint64(m.Index)
			cls := prog.InstrClass(pc)
			if m.Store && cls != trace.ClassStore {
				t.Fatalf("store ref at pc %#x with class %v", pc, cls)
			}
			if !m.Store && cls != trace.ClassLoad {
				t.Fatalf("load ref at pc %#x with class %v", pc, cls)
			}
		}
	}
}

func TestEngineMemPoolsDisjointFromCode(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	e := NewEngine(prog)
	for i := 0; i < 5000; i++ {
		ev, _ := e.NextBlock()
		for _, m := range ev.Mem {
			if m.Addr < coldBase {
				t.Fatalf("data address %#x overlaps code space", m.Addr)
			}
		}
	}
}

func TestEngineLoadStoreRates(t *testing.T) {
	p := smallProfile()
	prog, _ := NewProgram(p)
	e := NewEngine(prog)
	loads, stores := 0, 0
	var instrs uint64
	for instrs < 400000 {
		ev, _ := e.NextBlock()
		instrs += uint64(ev.NumInstrs)
		for _, m := range ev.Mem {
			if m.Store {
				stores++
			} else {
				loads++
			}
		}
	}
	lf := float64(loads) / float64(instrs)
	sf := float64(stores) / float64(instrs)
	if math.Abs(lf-p.LoadFrac) > 0.06 {
		t.Errorf("load rate %.3f, profile %.3f", lf, p.LoadFrac)
	}
	if math.Abs(sf-p.StoreFrac) > 0.04 {
		t.Errorf("store rate %.3f, profile %.3f", sf, p.StoreFrac)
	}
}

func TestEngineClassDistribution(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	counts := map[trace.Class]int{}
	for pc := codeBase; pc < codeBase+40000; pc += 4 {
		counts[prog.InstrClass(pc)]++
	}
	if counts[trace.ClassALU] == 0 || counts[trace.ClassLoad] == 0 || counts[trace.ClassStore] == 0 {
		t.Errorf("class distribution degenerate: %v", counts)
	}
}

// The defining property of the datacenter workloads (§3, Fig 2): the
// instruction-line reuse mixture must contain a meaningful long tail.
func TestEngineReuseMixtureHasLongTail(t *testing.T) {
	p, _ := ProfileByName("tomcat")
	prog, err := NewProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	tr := reuse.NewTracker(1 << 18)
	buckets := [3]uint64{}
	var instrs uint64
	var lastLine uint64 = ^uint64(0)
	for instrs < 2_000_000 {
		ev, _ := e.NextBlock()
		instrs += uint64(ev.NumInstrs)
		line := ev.Addr >> 6
		if line != lastLine {
			d := tr.Access(line)
			buckets[reuse.Classify(d)]++
			lastLine = line
		}
	}
	total := buckets[0] + buckets[1] + buckets[2]
	longFrac := float64(buckets[2]) / float64(total)
	if longFrac < 0.02 || longFrac > 0.6 {
		t.Errorf("long-reuse access fraction = %.3f (short %.3f mid %.3f), want a real but minority tail",
			longFrac, float64(buckets[0])/float64(total), float64(buckets[1])/float64(total))
	}
	if buckets[0] == 0 || buckets[1] == 0 {
		t.Errorf("reuse buckets degenerate: %v", buckets)
	}
}

func TestNewProgramRejectsBadProfile(t *testing.T) {
	p := smallProfile()
	p.NumServices = 0
	if _, err := NewProgram(p); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSPECLikeProfiles(t *testing.T) {
	ps := SPECLikeProfiles()
	if len(ps) != 3 {
		t.Fatalf("got %d SPEC-like profiles", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.FootprintMB > 0.25 {
			t.Errorf("%s footprint %.2f MB; SPEC-like profiles must fit the L2", p.Name, p.FootprintMB)
		}
		if _, ok := ProfileByName(p.Name); !ok {
			t.Errorf("%s not findable by name", p.Name)
		}
		prog, err := NewProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if prog.FootprintBytes() > 320*1024 {
			t.Errorf("%s generated %.2f MB of code", p.Name, float64(prog.FootprintBytes())/(1<<20))
		}
	}
}
