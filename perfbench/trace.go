package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// spanKind names what a span timed. Spans come from the benchmark's own
// code only: client operations, wrapped store calls and probes.
type spanKind uint8

const (
	spanRead spanKind = iota
	spanWrite
	spanStoreRead
	spanStoreWrite
	spanProbeExchangeRemote
	spanProbeExchangeLocal
	spanProbePageRemote
	spanProbePageLocal
	spanProbeMove64k
	spanProbeWriteLarge
)

var spanNames = [...]string{
	"op.read", "op.write", "store.read", "store.write",
	"probe.exchange_remote", "probe.exchange_local",
	"probe.page_read_remote", "probe.page_read_local", "probe.moveto_64k_remote",
	"probe.write_large_64k_remote",
}

// span is one timed call. id names a client operation (client<<40 |
// op number) or a probe (series<<40 | iteration). Every span is a root:
// store calls run on server goroutines, and without instrumentation
// inside the program the benchmark cannot see which request caused
// them, so their id is 0.
type span struct {
	kind         spanKind
	client       uint8
	id           uint64
	start, durNs int64
}

// tracer keeps spans in a fixed in-memory buffer and writes them out
// when the run ends. Recording is one atomic add and a slot write;
// spans past the buffer's end are counted, not kept.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) record(kind spanKind, client uint8, id uint64, t0, t1 time.Time) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, client: client, id: id, start: int64(t0.Sub(t.epoch)), durNs: int64(t1.Sub(t0))}
}

// recorded returns the kept spans. Call it only after every recorder
// has stopped.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durations returns the durations (ns) of the kept spans of one kind,
// sorted ascending.
func (t *tracer) durations(kind spanKind) []int64 {
	var out []int64
	for _, s := range t.recorded() {
		if s.kind == kind {
			out = append(out, s.durNs)
		}
	}
	sortNs(out)
	return out
}

// write saves the spans as tab-separated lines after a header line
// carrying the run's provenance.
func (t *tracer) write(path string, provenance string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s\n# dropped=%d\nkind\tclient\tid\tstart_ns\tdur_ns\n", provenance, t.dropped.Load())
	for _, s := range t.recorded() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.client, s.id, s.start, s.durNs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
