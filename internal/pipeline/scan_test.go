package pipeline

import (
	"testing"

	"emissary/internal/cache"
	"emissary/internal/core"
	"emissary/internal/workload"
)

// checkScanCursor asserts the FDIP scan cursor's invariant: every FTQ
// entry before scanDone has all of its lines requested. It also checks
// the MSHR list the map-free lookup scans: at most MaxMSHRs live
// entries, never two for the same line.
func checkScanCursor(t *testing.T, c *Core, step int) {
	t.Helper()
	f := c.fe
	if f.scanDone < 0 || f.scanDone > f.ftqCount {
		t.Fatalf("step %d: scanDone %d outside [0, %d]", step, f.scanDone, f.ftqCount)
	}
	for i := 0; i < f.scanDone; i++ {
		e := &f.ftq[(f.ftqHead+i)%f.cfg.FTQEntries]
		if all := uint8(1)<<uint(e.nLines) - 1; e.requested != all {
			t.Fatalf("step %d: FTQ entry %d (%#x) before scanDone %d has requested %02b, want %02b",
				step, i, e.addr, f.scanDone, e.requested, all)
		}
	}
	if len(f.pending) > f.cfg.MaxMSHRs {
		t.Fatalf("step %d: %d live MSHRs, limit %d", step, len(f.pending), f.cfg.MaxMSHRs)
	}
	for i, m := range f.pending {
		for _, o := range f.pending[i+1:] {
			if m.line == o.line {
				t.Fatalf("step %d: two live MSHRs for line %#x", step, m.line)
			}
		}
	}
}

// TestScanCursorInvariant steps real workloads cycle by cycle under
// FDIP — with the default MSHR budget and with only two MSHRs, so the
// scan keeps stopping part-way — and checks the cursor after every
// Step. Wrong-path fetch, mispredict recovery and decode pops all move
// the FTQ under the cursor during these runs.
func TestScanCursorInvariant(t *testing.T) {
	cases := []struct {
		name     string
		bench    string
		maxMSHRs int
	}{
		{"fdip", "tomcat", 0},
		{"fdip-2mshr", "xapian", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof, ok := workload.ProfileByName(tc.bench)
			if !ok {
				t.Fatalf("unknown benchmark %s", tc.bench)
			}
			prog, err := workload.NewProgram(prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.FDIP = true
			if tc.maxMSHRs > 0 {
				cfg.MaxMSHRs = tc.maxMSHRs
			}
			hier := cache.NewHierarchy(cache.DefaultConfig(core.MustParsePolicy("P(8):S&E")))
			c, err := NewCore(cfg, workload.NewEngine(prog), hier, 1)
			if err != nil {
				t.Fatal(err)
			}
			maxDone := 0
			for step := 0; step < 150_000; step++ {
				c.Step()
				checkScanCursor(t, c, step)
				if c.fe.scanDone > maxDone {
					maxDone = c.fe.scanDone
				}
			}
			if c.Committed() == 0 || c.fe.Mispredicts == 0 {
				t.Fatalf("run too quiet to exercise the cursor: %d committed, %d mispredicts", c.Committed(), c.fe.Mispredicts)
			}
			if maxDone < 2 {
				t.Fatalf("scanDone never passed %d entries; the cursor is not being advanced", maxDone)
			}
		})
	}
}
