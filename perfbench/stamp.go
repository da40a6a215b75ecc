package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// pageSize is the rfs page (the server's default BlockSize, the paper's
// 512-byte page).
const pageSize = 512

// Every page the benchmark writes carries a stamp naming the file, the
// block, the writer and the writer's sequence number, followed by a fill
// derived from those four fields. A read that returns a page from
// another block, a torn page or a page nobody wrote fails the check.
//
// Layout: magic(4) file(4) block(4) writer(4) seq(8) fill(488).
const (
	stampMagic  = 0x56504231 // "VPB1"
	stampHeader = 24
)

// stamp identifies one write of one page. Writer 0 with seq 0 is the
// preloaded content every file starts with; clients are writers 1..N.
type stamp struct {
	file, block, writer uint32
	seq                 uint64
}

// fillPage writes s's page image into p (len(p) == pageSize).
func fillPage(p []byte, s stamp) {
	binary.LittleEndian.PutUint32(p[0:], stampMagic)
	binary.LittleEndian.PutUint32(p[4:], s.file)
	binary.LittleEndian.PutUint32(p[8:], s.block)
	binary.LittleEndian.PutUint32(p[12:], s.writer)
	binary.LittleEndian.PutUint64(p[16:], s.seq)
	x := fillSeed(s)
	for off := stampHeader; off+8 <= len(p); off += 8 {
		x = xorshift(x)
		binary.LittleEndian.PutUint64(p[off:], x)
	}
}

// parsePage returns the stamp p carries, or an error if p is not an
// intact page image.
func parsePage(p []byte) (stamp, error) {
	if len(p) != pageSize {
		return stamp{}, fmt.Errorf("page is %d bytes, want %d", len(p), pageSize)
	}
	if m := binary.LittleEndian.Uint32(p[0:]); m != stampMagic {
		return stamp{}, fmt.Errorf("bad page magic %#x", m)
	}
	s := stamp{
		file:   binary.LittleEndian.Uint32(p[4:]),
		block:  binary.LittleEndian.Uint32(p[8:]),
		writer: binary.LittleEndian.Uint32(p[12:]),
		seq:    binary.LittleEndian.Uint64(p[16:]),
	}
	x := fillSeed(s)
	for off := stampHeader; off+8 <= len(p); off += 8 {
		x = xorshift(x)
		if binary.LittleEndian.Uint64(p[off:]) != x {
			return s, fmt.Errorf("torn page %v at byte %d", s, off)
		}
	}
	return s, nil
}

func fillSeed(s stamp) uint64 {
	x := uint64(s.file)<<32 ^ uint64(s.block) ^ uint64(s.writer)<<48 ^ s.seq*0x9E3779B97F4A7C15
	if x == 0 {
		x = 1
	}
	return x
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (s stamp) String() string {
	return fmt.Sprintf("f%d/b%d w%d#%d", s.file, s.block, s.writer, s.seq)
}

// fileModel is the expected content of one file: for each block, the
// last acknowledged write of each writer (seq 0 = none yet). Private
// files have one writer, so the last acknowledged write is exactly what
// a read must return; a shared file's block must hold the preload or
// some writer's write, and once writers are quiet, one of the writers'
// last writes.
type fileModel struct {
	file   uint32
	blocks int
	mu     sync.Mutex
	// last[w][b] is writer w's last acknowledged seq on block b (w is
	// the 0-based writer index: stamp writer w+1).
	last [][]uint64
	// unsure marks blocks a failed write may or may not have changed.
	unsure []bool
	// issued[w] is the highest seq writer w has sent to this file.
	issued []atomic.Uint64
}

func newFileModel(file uint32, blocks, writers int) *fileModel {
	m := &fileModel{
		file:   file,
		blocks: blocks,
		last:   make([][]uint64, writers),
		unsure: make([]bool, blocks),
		issued: make([]atomic.Uint64, writers),
	}
	for w := range m.last {
		m.last[w] = make([]uint64, blocks)
	}
	return m
}

// issue records that writer w is about to send seq.
func (m *fileModel) issue(w int, seq uint64) { m.issued[w].Store(seq) }

// acked records writer w's acknowledged write of blocks [first, first+n).
func (m *fileModel) acked(w int, first, n int, seq uint64) {
	m.mu.Lock()
	for b := first; b < first+n; b++ {
		m.last[w][b] = seq
	}
	m.mu.Unlock()
}

// failed records that a write of blocks [first, first+n) returned an
// error: its effect on the store is unknown.
func (m *fileModel) failed(first, n int) {
	m.mu.Lock()
	for b := first; b < first+n; b++ {
		m.unsure[b] = true
	}
	m.mu.Unlock()
}

// checkRead validates a page a client read from block b while writers
// may be active. reader is the 0-based index of the reading client;
// exact demands the reader's own last acknowledged write (private
// files).
func (m *fileModel) checkRead(p []byte, b int, reader int, exact bool) error {
	s, err := parsePage(p)
	if err != nil {
		return err
	}
	if s.file != m.file || s.block != uint32(b) {
		return fmt.Errorf("read f%d/b%d returned %v", m.file, b, s)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.unsure[b] {
		return nil
	}
	if exact {
		want := stamp{file: m.file, block: uint32(b), writer: uint32(reader + 1), seq: m.last[reader][b]}
		if want.seq == 0 {
			want.writer = 0
		}
		if s != want {
			return fmt.Errorf("read f%d/b%d returned %v, last acked write is %v", m.file, b, s, want)
		}
		return nil
	}
	if s.writer == 0 && s.seq == 0 {
		return nil
	}
	w := int(s.writer) - 1
	if w < 0 || w >= len(m.issued) || s.seq == 0 || s.seq > m.issued[w].Load() {
		return fmt.Errorf("read f%d/b%d returned %v, which no writer sent", m.file, b, s)
	}
	return nil
}

// checkFinal validates block b of the quiesced store: the preload if no
// writer's write was acknowledged, otherwise one writer's last write.
func (m *fileModel) checkFinal(p []byte, b int) error {
	s, err := parsePage(p)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.unsure[b] {
		return nil
	}
	written := false
	for w := range m.last {
		seq := m.last[w][b]
		if seq == 0 {
			continue
		}
		written = true
		if s == (stamp{file: m.file, block: uint32(b), writer: uint32(w + 1), seq: seq}) {
			return nil
		}
	}
	if !written && s == (stamp{file: m.file, block: uint32(b)}) {
		return nil
	}
	return fmt.Errorf("store f%d/b%d holds %v, not a last acknowledged write", m.file, b, s)
}
