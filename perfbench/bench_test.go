package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// A page image survives a round trip, and any flipped byte is caught.
func TestStampRoundTrip(t *testing.T) {
	p := make([]byte, pageSize)
	want := stamp{file: 7, block: 3, writer: 2, seq: 41}
	fillPage(p, want)
	got, err := parsePage(p)
	if err != nil || got != want {
		t.Fatalf("parsePage = %v, %v; want %v", got, err, want)
	}
	for _, off := range []int{0, 5, stampHeader, pageSize - 1} {
		q := append([]byte(nil), p...)
		q[off] ^= 0x40
		if s, err := parsePage(q); err == nil && s == want {
			t.Errorf("byte %d flipped: page still parses as %v", off, s)
		}
	}
}

// The model accepts exactly the reads and final contents the protocol
// allows.
func TestFileModel(t *testing.T) {
	m := newFileModel(9, 4, 2)
	page := make([]byte, pageSize)

	fillPage(page, stamp{file: 9, block: 1})
	if err := m.checkRead(page, 1, 0, true); err != nil {
		t.Errorf("preload read: %v", err)
	}
	m.issue(0, 1)
	m.acked(0, 1, 1, 1)
	if err := m.checkRead(page, 1, 0, true); err == nil {
		t.Error("private read of the preload after an acked write passed")
	}
	fillPage(page, stamp{file: 9, block: 1, writer: 1, seq: 1})
	if err := m.checkRead(page, 1, 0, true); err != nil {
		t.Errorf("private read of the acked write: %v", err)
	}
	if err := m.checkFinal(page, 1); err != nil {
		t.Errorf("final check of the acked write: %v", err)
	}
	fillPage(page, stamp{file: 9, block: 2, writer: 2, seq: 5})
	if err := m.checkRead(page, 2, 0, false); err == nil {
		t.Error("shared read of a seq writer 2 never sent passed")
	}
	fillPage(page, stamp{file: 9, block: 1, writer: 1, seq: 1})
	if err := m.checkRead(page, 2, 0, false); err == nil {
		t.Error("read of block 2 returning block 1 passed")
	}
	fillPage(page, stamp{file: 9, block: 3})
	if err := m.checkFinal(page, 3); err != nil {
		t.Errorf("final check of an unwritten block: %v", err)
	}
}

// With one client and a cold 64-block file, 64 page reads make exactly
// 64 store reads: the derived miss count comes from the store wrapper,
// where the rfs.vol<id>.cache_misses gauge counts each cold fast-path
// read twice. The run then passes the same teardown checks as a
// benchmark run, the pooled-buffer leak check included.
func TestColdReadsCountOneStoreReadEach(t *testing.T) {
	const file, blocks = 5, 64
	w := &workload{
		name:   "cold-64",
		shards: 1,
		files:  map[uint32][]fileSpec{1: {{file, blocks}}},
		bind:   func(*env, int64) error { return nil },
	}
	images := map[uint32][]byte{file: preloadImage(file, blocks)}
	e, err := boot(w, 1, images)
	if err != nil {
		t.Fatal(err)
	}
	before := takeSnap(e)
	if err := e.readAll(0, 1, file, blocks); err != nil {
		e.close()
		t.Fatal(err)
	}
	after := takeSnap(e)
	if got := after.primary.reads - before.primary.reads; got != blocks {
		t.Errorf("store reads = %d, want %d", got, blocks)
	}
	if got := serverMissRatio(before, after); got != 1 {
		t.Errorf("server miss ratio = %v, want 1", got)
	}
	t.Logf("rfs.vol1.cache_misses gauge moved by %d for %d cold reads",
		after.counters["rfs.vol1.cache_misses"]-before.counters["rfs.vol1.cache_misses"], blocks)
	if err := e.teardownChecked(); err != nil {
		t.Fatal(err)
	}
}

// A run in which operations fail reports itself incorrect: failures
// never count as fast operations.
func TestFailedOpsFailTheRun(t *testing.T) {
	const file, blocks = 5, 8
	w := &workload{
		name:   "refused",
		shards: 1,
		files:  map[uint32][]fileSpec{1: {{file, blocks}}},
		bind: func(e *env, seed int64) error {
			for i := 0; i < clients; i++ {
				c := e.addClient(rngFor(seed, i))
				c.op = func(*benchClient) (bool, time.Time, time.Time, error) {
					t := time.Now()
					return false, t, t, errors.New("refused")
				}
			}
			return nil
		},
	}
	res, detail, err := run(w, 1, 100*time.Millisecond, false, t.TempDir(), map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d; want an incorrect run of failed operations", res.Correct, res.Attempted, res.Failed)
	}
	problems, _ := detail["problems"].([]string)
	if !strings.Contains(strings.Join(problems, "\n"), "operations failed") {
		t.Errorf("problems %q do not name the failed operations", problems)
	}
}

// A harness that stalls between operations breaks Little's Law, and
// the self-check sees it.
func TestLittlesLaw(t *testing.T) {
	w := window{elapsed: 1e9, busyNs: 2e9}
	if e := w.littlesLawErr(2); e != 0 {
		t.Errorf("busy clients: err = %v, want 0", e)
	}
	w.busyNs = 1.6e9
	if e := w.littlesLawErr(2); e < littlesLawTol {
		t.Errorf("clients idle a fifth of the time: err = %v, want > %v", e, littlesLawTol)
	}
}

// Every workload is registered under its own name and records its
// shape for the provenance line.
func TestWorkloads(t *testing.T) {
	for name, w := range workloads {
		if w.name != name || w.params == nil || w.bind == nil || strings.TrimSpace(w.why) == "" {
			t.Errorf("workload %q is incomplete", name)
		}
	}
}
