package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"vkernel/internal/rfs"
)

// clients is the closed-loop client count: one per CPU of the 2-CPU
// hosts the benchmark was sized on. Each client is one V process that
// blocks in Send until its request is answered and issues the next
// request at once (zero think time) — a diskless workstation.
const clients = 2

// fileSpec is one file a volume holds before the cluster boots.
type fileSpec struct {
	id     uint32
	blocks int
}

// workload is one traffic mix. Its shape is fixed; the seed picks the
// block and Zipf draws.
type workload struct {
	name string
	why  string
	// shards and replicas shape the cluster; files lists each volume's
	// files (volume ids 1..shards). Every volume copy is a MemStore.
	shards, replicas int
	files            map[uint32][]fileSpec
	// warmOps is how many operations each client runs after the
	// cache-filling reads, before timing starts.
	warmOps int
	// bind attaches the workload's clients to a booted environment.
	bind func(e *env, seed int64) error
	// params records the shape in the provenance line.
	params map[string]any
}

var workloads = map[string]*workload{
	"page-hot":        pageHot(),
	"stream-64k":      stream64k(),
	"workstation-mix": workstationMix(),
}

// rngFor derives a client's generator from the workload seed.
func rngFor(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
}

// pageHot is Table 6-1: 512 B page reads and writes of one 512 KB file
// that fits the server cache, 3 reads : 1 write, both clients on the
// same file. The per-message path does all the work.
func pageHot() *workload {
	const file, blocks = 1, 1024
	return &workload{
		name:    "page-hot",
		why:     "Table 6-1: cached 512 B page reads and writes; the per-message path (stub, ipc, UDP, server dispatch) does all the work",
		shards:  1,
		files:   map[uint32][]fileSpec{1: {{file, blocks}}},
		warmOps: 2000,
		params: map[string]any{
			"shards": 1, "replicas": 0, "store": "MemStore", "client": "rfs.Client",
			"file_blocks": blocks, "read_write_ratio": "3:1", "access": "uniform",
		},
		bind: func(e *env, seed int64) error {
			m := e.model(file)
			for i := 0; i < clients; i++ {
				cl := e.volumeClient(i, 1)
				page := make([]byte, pageSize)
				var seq uint64
				c := e.addClient(rngFor(seed, i))
				c.op = func(c *benchClient) (bool, time.Time, time.Time, error) {
					b := c.rng.Intn(blocks)
					if c.rng.Intn(4) < 3 {
						t0 := time.Now()
						_, err := cl.ReadBlock(file, uint32(b), page)
						t1 := time.Now()
						if err == nil {
							c.check(m.checkRead(page, b, c.idx, false))
						}
						return false, t0, t1, err
					}
					seq++
					fillPage(page, stamp{file: file, block: uint32(b), writer: uint32(c.idx + 1), seq: seq})
					m.issue(c.idx, seq)
					t0 := time.Now()
					err := cl.WriteBlock(file, uint32(b), page)
					t1 := time.Now()
					if err == nil {
						m.acked(c.idx, b, 1, seq)
					} else {
						m.failed(b, 1)
					}
					return true, t0, t1, err
				}
			}
			return e.readAll(0, 1, file, blocks)
		},
	}
}

// stream64k is Table 6-3 and the boot storm: 3 LoadProgram of one of
// eight shared 64 KB images : 1 WriteLarge of 64 KB into the client's
// private file. MoveTo/MoveFrom chunk trains dominate.
func stream64k() *workload {
	const (
		images      = 8
		imageBlocks = 64 << 10 / pageSize
		imageBase   = 101
		privBase    = 201
		slots       = 4
		privBlocks  = slots * imageBlocks
	)
	vol := []fileSpec{}
	for i := 0; i < images; i++ {
		vol = append(vol, fileSpec{uint32(imageBase + i), imageBlocks})
	}
	for i := 0; i < clients; i++ {
		vol = append(vol, fileSpec{uint32(privBase + i), privBlocks})
	}
	return &workload{
		name:    "stream-64k",
		why:     "Table 6-3 and the boot storm: 64 KB program loads and 64 KB writes; MoveTo/MoveFrom chunk trains, bufpool and flush runs dominate",
		shards:  1,
		files:   map[uint32][]fileSpec{1: vol},
		warmOps: 40,
		params: map[string]any{
			"shards": 1, "replicas": 0, "store": "MemStore", "client": "rfs.Client",
			"images": images, "image_bytes": 64 << 10, "private_slots": slots,
			"load_write_ratio": "3:1", "header_bytes": pageSize,
		},
		bind: func(e *env, seed int64) error {
			want := make([][]byte, images)
			for i := range want {
				want[i] = preloadImage(uint32(imageBase+i), imageBlocks)
			}
			for i := 0; i < clients; i++ {
				cl := e.volumeClient(i, 1)
				priv := uint32(privBase + i)
				m := e.model(priv)
				buf := make([]byte, 64<<10)
				var seq uint64
				c := e.addClient(rngFor(seed, i))
				c.op = func(c *benchClient) (bool, time.Time, time.Time, error) {
					if c.rng.Intn(4) < 3 {
						img := c.rng.Intn(images)
						t0 := time.Now()
						got, err := cl.LoadProgram(uint32(imageBase+img), pageSize)
						t1 := time.Now()
						if err == nil && !bytes.Equal(got, want[img]) {
							c.check(imageDiff(uint32(imageBase+img), got, want[img]))
						}
						return false, t0, t1, err
					}
					slot := c.rng.Intn(slots)
					seq++
					for b := 0; b < imageBlocks; b++ {
						blk := slot*imageBlocks + b
						fillPage(buf[b*pageSize:(b+1)*pageSize], stamp{file: priv, block: uint32(blk), writer: uint32(c.idx + 1), seq: seq})
					}
					m.issue(c.idx, seq)
					t0 := time.Now()
					err := cl.WriteLarge(priv, uint32(slot*len(buf)), buf)
					t1 := time.Now()
					if err == nil {
						m.acked(c.idx, slot*imageBlocks, imageBlocks, seq)
					} else {
						m.failed(slot*imageBlocks, imageBlocks)
					}
					return true, t0, t1, err
				}
			}
			for i := 0; i < images; i++ {
				if err := e.readAll(0, 1, uint32(imageBase+i), imageBlocks); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// workstationMix is a cached workstation: 2 shards, 2 volumes with one
// replica each. Each client caches (CachingClient) a
// private 4 MB file on its home volume and one shared 1 MB file on
// volume 1. Zipf-skewed pages, 70 % reads / 30 % writes; one access in
// three, read or write, goes to the shared file.
func workstationMix() *workload {
	const (
		privBlocks   = 4 << 20 / pageSize
		sharedBlocks = 1 << 20 / pageSize
		privBase     = 11
		sharedFile   = 20
		zipfS        = 1.1
	)
	return &workload{
		name:     "workstation-mix",
		why:      "working set exceeds server and client caches: ccache hits, store misses, write-behind, replica acks and invalidation callbacks",
		shards:   2,
		replicas: 1,
		files: map[uint32][]fileSpec{
			1: {{privBase, privBlocks}, {sharedFile, sharedBlocks}},
			2: {{privBase + 1, privBlocks}},
		},
		warmOps: 3000,
		params: map[string]any{
			"shards": 2, "replicas": 1, "store": "MemStore", "client": "rfs.CachingClient",
			"private_blocks": privBlocks, "shared_blocks": sharedBlocks, "zipf_s": zipfS,
			"read_frac": 0.7, "shared_frac": 1.0 / 3,
		},
		bind: func(e *env, seed int64) error {
			shared := e.model(sharedFile)
			permRng := rand.New(rand.NewSource(seed))
			sharedPerm := permRng.Perm(sharedBlocks)
			for i := 0; i < clients; i++ {
				home := uint32(i + 1)
				priv := uint32(privBase + i)
				pm := e.model(priv)
				privPerm := permRng.Perm(privBlocks)
				privCl, err := e.cachingClient(i, home)
				if err != nil {
					return err
				}
				sharedCl, err := e.cachingClient(i, 1)
				if err != nil {
					return err
				}
				rng := rngFor(seed, i)
				zPriv := rand.NewZipf(rng, zipfS, 1, privBlocks-1)
				zShared := rand.NewZipf(rng, zipfS, 1, sharedBlocks-1)
				page := make([]byte, pageSize)
				var seq uint64
				c := e.addClient(rng)
				c.op = func(c *benchClient) (bool, time.Time, time.Time, error) {
					write := c.rng.Intn(10) < 3
					cl, m, file, b, exact := privCl, pm, priv, privPerm[zPriv.Uint64()], true
					if c.rng.Intn(3) == 0 {
						cl, m, file, b, exact = sharedCl, shared, sharedFile, sharedPerm[zShared.Uint64()], false
						c.sharedWrites += btoi(write)
					}
					if !write {
						t0 := time.Now()
						_, err := cl.ReadBlock(file, uint32(b), page)
						t1 := time.Now()
						if err == nil {
							c.check(m.checkRead(page, b, c.idx, exact))
						}
						return false, t0, t1, err
					}
					seq++
					fillPage(page, stamp{file: file, block: uint32(b), writer: uint32(c.idx + 1), seq: seq})
					m.issue(c.idx, seq)
					t0 := time.Now()
					err := cl.WriteBlock(file, uint32(b), page)
					t1 := time.Now()
					if err == nil {
						m.acked(c.idx, b, 1, seq)
					} else {
						m.failed(b, 1)
					}
					return true, t0, t1, err
				}
			}
			return nil
		},
	}
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// preloadImage is a file's content before any client writes it: every
// page stamped by writer 0, seq 0.
func preloadImage(file uint32, blocks int) []byte {
	data := make([]byte, blocks*pageSize)
	for b := 0; b < blocks; b++ {
		fillPage(data[b*pageSize:(b+1)*pageSize], stamp{file: file, block: uint32(b)})
	}
	return data
}

// preloaded builds one volume copy's store holding the volume's files.
func (w *workload) preloaded(vol uint32, images map[uint32][]byte) *rfs.MemStore {
	st := rfs.NewMemStore()
	for _, f := range w.files[vol] {
		_ = st.WriteAt(f.id, images[f.id], 0) // a MemStore write cannot fail
	}
	return st
}

// imageDiff describes how a loaded program image differs from the
// expected one: its length, or the first page that is wrong.
func imageDiff(file uint32, got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("LoadProgram f%d returned %d bytes, want %d", file, len(got), len(want))
	}
	for off := 0; off < len(want); off += pageSize {
		if !bytes.Equal(got[off:off+pageSize], want[off:off+pageSize]) {
			s, err := parsePage(got[off : off+pageSize])
			if err == nil {
				err = fmt.Errorf("page holds %v", s)
			}
			return fmt.Errorf("LoadProgram f%d: byte %d differs: %w", file, off, err)
		}
	}
	return nil
}
