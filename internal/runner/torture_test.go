package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"emissary/internal/faultinject"
	"emissary/internal/sim"
)

// TestJournalCrashPointTorture is the crash-point sweep for the
// journal: a counting run learns every filesystem operation one
// journaled sweep lifetime performs (lock, open, scan, one append+sync
// per record, close), then each operation index is hit with both an
// injected failure and a simulated power cut. The contract at every
// point:
//
//  1. Under JournalDegrade the healthy sweep survives the fault with
//     results byte-identical to a journal-free run.
//  2. A reopen on the real filesystem succeeds — whatever the fault
//     left on disk recovers to a clean record prefix whose entries
//     match the uninterrupted run exactly.
//  3. A sweep resumed from the reopened journal is byte-identical to
//     the uninterrupted sweep.
func TestJournalCrashPointTorture(t *testing.T) {
	jobs := []sim.Options{
		tinyOptions(t, "TPLRU", 1),
		tinyOptions(t, "DRRIP", 2),
		tinyOptions(t, "P(8):S&E", 3),
	}
	clean, err := RunSims(context.Background(), jobs, SimsConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Learn the op-index space from one clean, counted lifetime.
	counter, err := faultinject.NewInjector(faultinject.OS, 1)
	if err != nil {
		t.Fatal(err)
	}
	{
		// Subtest names carry the traced operation and its path. The
		// directory is named with a fixed "-" before its random suffix
		// (t.TempDir puts the random digits straight after the test
		// name), so a name cut off there is the same on every run.
		dir, err := os.MkdirTemp("", "TestJournalCrashPointTorture-*")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		path := filepath.Join(dir, "count.journal")
		j, err := OpenJournalFS(counter, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunSims(context.Background(), jobs, SimsConfig{Workers: 1, Journal: j}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	total := counter.Ops()
	trace := counter.Trace()
	// Lock create+write+close, journal open, two seeks, 3×(append,
	// sync), close's sync+close+remove-lock: the lifetime must expose
	// at least that much surface.
	if total < 12 {
		t.Fatalf("journaled sweep lifetime only counted %d ops (%v)", total, trace)
	}

	for k := 1; k <= total; k++ {
		for _, mode := range []faultinject.Mode{faultinject.ModeFail, faultinject.ModeCrash} {
			t.Run(fmt.Sprintf("%s@%d_%s", mode, k, trace[k-1]), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "torture.journal")
				inj, err := faultinject.NewInjector(faultinject.OS, uint64(k), faultinject.Fault{Op: k, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var warns []error
				j, oerr := OpenJournalFS(inj, path)
				if oerr != nil {
					// The fault landed inside open itself; there is no
					// journal to degrade. It must at least be *our* fault.
					if !errors.Is(oerr, faultinject.ErrInjected) && !errors.Is(oerr, faultinject.ErrPowerCut) {
						t.Fatalf("open failed with a foreign error: %v", oerr)
					}
				} else {
					res, rerr := RunSims(context.Background(), jobs, SimsConfig{
						Workers:        1,
						Journal:        j,
						JournalFailure: JournalDegrade,
						Warn: func(e error) {
							mu.Lock()
							warns = append(warns, e)
							mu.Unlock()
						},
					})
					if rerr != nil {
						t.Fatalf("degrade did not protect the sweep from a journal fault at op %d: %v", k, rerr)
					}
					if !reflect.DeepEqual(res, clean) {
						t.Errorf("degraded sweep results differ from journal-free run at op %d", k)
					}
					if len(warns) > 1 {
						t.Errorf("Warn invoked %d times, want at most 1", len(warns))
					}
					// Close may fail after a power cut; it must not panic
					// and must release the in-process lock regardless.
					j.Close()
				}

				// Reboot: reopen on the real filesystem. Whatever the
				// fault left behind (torn line, missing file, stale lock
				// from a crashed close) must recover.
				j2, err := OpenJournal(path)
				if err != nil {
					t.Fatalf("reopen after %s at op %d failed: %v", mode, k, err)
				}
				for i, opt := range jobs {
					if got, ok := j2.Lookup(opt); ok && !reflect.DeepEqual(got, clean[i]) {
						t.Errorf("surviving record %d differs from the uninterrupted run", i)
					}
				}
				res2, err := RunSims(context.Background(), jobs, SimsConfig{Workers: 1, Journal: j2})
				if err != nil {
					t.Fatalf("resume after %s at op %d failed: %v", mode, k, err)
				}
				if !reflect.DeepEqual(res2, clean) {
					t.Errorf("resumed sweep differs from uninterrupted sweep after %s at op %d", mode, k)
				}
				if n := j2.Completed(); n != len(jobs) {
					t.Errorf("journal holds %d records after resume, want %d", n, len(jobs))
				}
				if err := j2.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestJournalDropSyncThenPowerCut is the lying-hardware case: a record
// whose fsync was silently dropped, followed by a power cut, loses that
// record (and possibly tears the line) — but the reopen still recovers
// to a clean prefix and the resumed sweep is byte-identical.
func TestJournalDropSyncThenPowerCut(t *testing.T) {
	jobs := []sim.Options{
		tinyOptions(t, "TPLRU", 1),
		tinyOptions(t, "DRRIP", 2),
		tinyOptions(t, "P(8):S&E", 3),
	}
	clean, err := RunSims(context.Background(), jobs, SimsConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Count the ops one open consumes so the faults land on the first
	// record's append/sync and the second record's append.
	counter, err := faultinject.NewInjector(faultinject.OS, 1)
	if err != nil {
		t.Fatal(err)
	}
	countPath := filepath.Join(t.TempDir(), "count.journal")
	jc, err := OpenJournalFS(counter, countPath)
	if err != nil {
		t.Fatal(err)
	}
	openOps := counter.Ops()
	jc.Close()

	path := filepath.Join(t.TempDir(), "dropsync.journal")
	inj, err := faultinject.NewInjector(faultinject.OS, 7,
		faultinject.Fault{Op: openOps + 2, Mode: faultinject.ModeDropSync}, // record 1's fsync: dropped
		faultinject.Fault{Op: openOps + 3, Mode: faultinject.ModeCrash},    // record 2's append: power cut
	)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var warns []error
	res, err := RunSims(context.Background(), jobs, SimsConfig{
		Workers:        1,
		Journal:        j,
		JournalFailure: JournalDegrade,
		Warn: func(e error) {
			mu.Lock()
			warns = append(warns, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if !reflect.DeepEqual(res, clean) {
		t.Error("degraded sweep results differ from journal-free run")
	}
	if len(warns) != 1 {
		t.Errorf("Warn invoked %d times, want 1", len(warns))
	}
	j.Close()

	// Nothing was ever durably synced, so the power cut may keep only a
	// seeded fraction of record 1's line: at most a torn line remains.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen failed: %v", err)
	}
	defer j2.Close()
	if n := j2.Completed(); n != 0 {
		t.Errorf("Completed = %d after dropped-sync power cut, want 0", n)
	}
	res2, err := RunSims(context.Background(), jobs, SimsConfig{Workers: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2, clean) {
		t.Error("resumed sweep differs from uninterrupted sweep")
	}
}
