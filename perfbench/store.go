package main

import (
	"sync/atomic"
	"time"

	"vkernel/internal/rfs"
)

// timedStore wraps a volume's backing store, handed to the cluster
// through ClusterConfig.NewStore. It always counts calls and bytes (one
// atomic add each); while a tracer is attached it also times every
// ReadAt and WriteAt and records a span for it.
//
// Its ReadAt count is the benchmark's server cache-miss count: the
// server's rfs.vol<id>.cache_misses gauge counts a cold fast-path read
// twice (once when the receive loop's fast path misses, again when the
// worker's getBlock misses), so it reads 2 per cold block.
type timedStore struct {
	inner   rfs.Store
	vol     uint32
	primary bool

	reads, writes        atomic.Int64
	readBytes, wroteByte atomic.Int64
	busyNs               atomic.Int64 // time inside ReadAt/WriteAt while traced
	tracer               atomic.Pointer[tracer]
}

// storeCounts is a point-in-time read of one or more stores' counters.
type storeCounts struct {
	reads, writes, readBytes, writeBytes, busyNs int64
}

func (s *timedStore) counts() storeCounts {
	return storeCounts{s.reads.Load(), s.writes.Load(), s.readBytes.Load(), s.wroteByte.Load(), s.busyNs.Load()}
}

// ReadAt implements rfs.Store.
func (s *timedStore) ReadAt(file uint32, p []byte, off int64) (int, error) {
	s.reads.Add(1)
	s.readBytes.Add(int64(len(p)))
	tr := s.tracer.Load()
	if tr == nil {
		return s.inner.ReadAt(file, p, off)
	}
	t0 := time.Now()
	n, err := s.inner.ReadAt(file, p, off)
	t1 := time.Now()
	s.busyNs.Add(int64(t1.Sub(t0)))
	tr.record(spanStoreRead, 0, 0, t0, t1)
	return n, err
}

// WriteAt implements rfs.Store.
func (s *timedStore) WriteAt(file uint32, p []byte, off int64) error {
	s.writes.Add(1)
	s.wroteByte.Add(int64(len(p)))
	tr := s.tracer.Load()
	if tr == nil {
		return s.inner.WriteAt(file, p, off)
	}
	t0 := time.Now()
	err := s.inner.WriteAt(file, p, off)
	t1 := time.Now()
	s.busyNs.Add(int64(t1.Sub(t0)))
	tr.record(spanStoreWrite, 0, 0, t0, t1)
	return err
}

// Size implements rfs.Store.
func (s *timedStore) Size(file uint32) (int64, error) { return s.inner.Size(file) }

// Create implements rfs.Store.
func (s *timedStore) Create(file uint32, size int64) error { return s.inner.Create(file, size) }

// Files implements rfs.Store.
func (s *timedStore) Files() ([]uint32, error) { return s.inner.Files() }

// Close implements rfs.Store.
func (s *timedStore) Close() error { return s.inner.Close() }
