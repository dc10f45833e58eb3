package workload

import (
	"testing"
	"testing/quick"

	"emissary/internal/branch"
)

func TestProgramGenerationDeterministic(t *testing.T) {
	p := smallProfile()
	a, err := NewProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() != b.NumBlocks() || a.TotalInstrs() != b.TotalInstrs() {
		t.Fatalf("generation nondeterministic: %d/%d vs %d/%d blocks/instrs",
			a.NumBlocks(), a.TotalInstrs(), b.NumBlocks(), b.TotalInstrs())
	}
	for i := range a.blocks {
		ab, bb := &a.blocks[i], &b.blocks[i]
		if ab.Addr != bb.Addr || ab.NInstr != bb.NInstr || ab.End != bb.End || ab.Target != bb.Target {
			t.Fatalf("block %d differs: %+v vs %+v", i, ab, bb)
		}
	}
}

func TestProgramSeedChangesLayout(t *testing.T) {
	p1 := smallProfile()
	p2 := smallProfile()
	p2.Seed++
	a, _ := NewProgram(p1)
	b, _ := NewProgram(p2)
	if a.NumBlocks() == b.NumBlocks() && a.TotalInstrs() == b.TotalInstrs() {
		// Same aggregate sizes can coincide; require some block-level
		// difference.
		same := true
		for i := 0; i < a.NumBlocks() && i < b.NumBlocks(); i++ {
			if a.blocks[i].NInstr != b.blocks[i].NInstr || a.blocks[i].End != b.blocks[i].End {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical programs")
		}
	}
}

func TestBlocksInLineMatchesIndex(t *testing.T) {
	prog, err := NewProgram(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	var scratch []branch.BTBEntry
	if err := quick.Check(func(pick uint16) bool {
		b := &prog.blocks[int(pick)%len(prog.blocks)]
		line := b.Addr >> 6
		scratch = prog.BlocksInLine(line, scratch[:0])
		// Every returned block must start in the line and exist in the
		// index; the picked block must be among them.
		found := false
		for _, e := range scratch {
			if e.Start>>6 != line {
				return false
			}
			if _, ok := prog.BlockAt(e.Start); !ok {
				return false
			}
			if e.Start == b.Addr {
				found = true
			}
		}
		return found
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBlocksInLineEmptyOutsideProgram(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	if got := prog.BlocksInLine(0x1, nil); len(got) != 0 {
		t.Errorf("found %d blocks far below the code base", len(got))
	}
}

func TestFootprintTopUpReachesTarget(t *testing.T) {
	for _, name := range []string{"tomcat", "xapian", "verilator", "specjbb"} {
		p, _ := ProfileByName(name)
		prog, err := NewProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(prog.FootprintBytes()) / (1024 * 1024)
		ratio := got / p.FootprintMB
		if ratio < 0.90 || ratio > 1.15 {
			t.Errorf("%s footprint %.2f MB is %.0f%% of the %.2f MB target",
				name, got, ratio*100, p.FootprintMB)
		}
	}
}

func TestInstrClassStablePerPC(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	for pc := codeBase; pc < codeBase+4000; pc += 4 {
		if prog.InstrClass(pc) != prog.InstrClass(pc) {
			t.Fatalf("class at %#x unstable", pc)
		}
	}
}

func TestServiceEntriesAreBlocks(t *testing.T) {
	prog, _ := NewProgram(smallProfile())
	if len(prog.services) < smallProfile().NumServices {
		t.Fatalf("only %d service entries", len(prog.services))
	}
	for _, e := range prog.services {
		if _, ok := prog.BlockAt(prog.blocks[e].Addr); !ok {
			t.Fatalf("service entry %d is not a block", e)
		}
	}
}

// TestLinkRejectsDanglingSuccessors pins the build-time check the
// engine relies on instead of a recovery path: a successor that is not
// a block start fails the build.
func TestLinkRejectsDanglingSuccessors(t *testing.T) {
	cases := []struct {
		name  string
		build func(g *generator)
		ok    bool
	}{
		{"self-loop jump", func(g *generator) {
			g.addBlock(Block{NInstr: 4, End: branch.KindJump, Target: codeBase})
		}, true},
		{"jump into a block body", func(g *generator) {
			g.addBlock(Block{NInstr: 4, End: branch.KindJump, Target: codeBase + instrBytes})
		}, false},
		{"fall-through past the end", func(g *generator) {
			g.addBlock(Block{NInstr: 4, End: branch.KindFallthrough})
		}, false},
		{"indirect target outside the program", func(g *generator) {
			g.addIndirect(Block{NInstr: 4, End: branch.KindIndirect}, []uint64{codeBase + 0x1000})
		}, false},
	}
	for _, tc := range cases {
		g := &generator{prog: &Program{profile: smallProfile()}, next: codeBase}
		tc.build(g)
		if err := g.link(); (err == nil) != tc.ok {
			t.Errorf("%s: link error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
