package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/rfs"
)

// Probes are the §5 and §6 analogues, run by one client against the
// booted cluster before the traced window: a 32-byte
// Send-Receive-Reply to an echo process on shard 0, a page read, a
// 64 KB MoveTo and a 64 KB WriteLarge (the server's MoveFrom and
// large-write staging), each from the client workstation's node
// ("remote") and, for the exchange and the page read, from a process on
// the shard's own node ("local").
const (
	probeExchanges  = 3000
	probePageReads  = 3000
	probeMoves      = 200
	probeLargeWrite = 200
)

// probeResult holds each probe's median, µs.
type probeResult struct {
	exchangeRemote, exchangeLocal float64
	pageRemote, pageLocal         float64
	move64kRemote                 float64
	writeLargeRemote              float64
}

func runProbes(e *env, tr *tracer) (probeResult, error) {
	var r probeResult
	shard := e.cluster.Servers[0]
	// The echo process answers 32-byte exchanges; a Send granting a
	// writable segment gets the segment filled by MoveTo first.
	payload := make([]byte, 64<<10)
	echo, err := shard.Node.Spawn("probe-echo", func(p *ipc.Proc) {
		for {
			msg, src, err := p.Receive()
			if err != nil {
				return
			}
			if _, size, access, ok := msg.Segment(); ok && access&ipc.SegWrite != 0 && size > 0 {
				if err := p.MoveTo(src, 0, payload[:size]); err != nil {
					continue
				}
			}
			_ = p.Reply(&msg, src)
		}
	})
	if err != nil {
		return r, err
	}
	remote, err := e.node.Attach("probe-remote")
	if err != nil {
		return r, err
	}
	defer e.node.Detach(remote)
	local, err := shard.Node.Attach("probe-local")
	if err != nil {
		return r, err
	}
	defer shard.Node.Detach(local)
	defer shard.Node.Detach(echo)

	exchange := func(p *ipc.Proc, seg *ipc.Segment) func() error {
		return func() error {
			var msg ipc.Message
			return p.Send(&msg, echo.Pid(), seg)
		}
	}
	vol := e.cluster.Volumes[0]
	file := e.w.files[vol][0].id
	localRouter, err := rfs.NewRouter(shard.Node)
	if err != nil {
		return r, err
	}
	defer localRouter.Close()
	page := make([]byte, pageSize)
	pageRead := func(cl *rfs.Client) func() error {
		return func() error {
			_, err := cl.ReadBlock(file, 0, page)
			return err
		}
	}
	big := make([]byte, 64<<10)
	// The large write puts back the first 64 KB of the file as they
	// are, read page by page, so the content model still holds; the
	// shards time rfs.op.write_large meanwhile.
	writer := rfs.NewVolumeClient(remote, e.router, vol)
	image := make([]byte, 64<<10)
	if err := readPages(writer, file, image); err != nil {
		return r, err
	}
	series := []struct {
		kind  spanKind
		n     int
		do    func() error
		out   *float64
		timed bool
	}{
		{spanProbeExchangeRemote, probeExchanges, exchange(remote, nil), &r.exchangeRemote, false},
		{spanProbeExchangeLocal, probeExchanges, exchange(local, nil), &r.exchangeLocal, false},
		{spanProbePageRemote, probePageReads, pageRead(rfs.NewVolumeClient(remote, e.router, vol)), &r.pageRemote, false},
		{spanProbePageLocal, probePageReads, pageRead(rfs.NewVolumeClient(local, localRouter, vol)), &r.pageLocal, false},
		{spanProbeMove64k, probeMoves, exchange(remote, &ipc.Segment{Data: big, Access: ipc.SegWrite}), &r.move64kRemote, false},
		{spanProbeWriteLarge, probeLargeWrite, func() error { return writer.WriteLarge(file, 0, image) }, &r.writeLargeRemote, true},
	}
	for si, s := range series {
		for _, reg := range e.shardRegistries() {
			reg.SetTiming(s.timed)
		}
		// The first tenth warms the path (route lookup, RTT estimate)
		// and is not kept.
		lat := make([]int64, 0, s.n)
		for i := 0; i < s.n+s.n/10; i++ {
			t0 := time.Now()
			if err := s.do(); err != nil {
				return r, fmt.Errorf("probe %s: %w", spanNames[s.kind], err)
			}
			t1 := time.Now()
			if i < s.n/10 {
				continue
			}
			lat = append(lat, int64(t1.Sub(t0)))
			tr.record(s.kind, 0, uint64(si+1)<<40|uint64(i), t0, t1)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		*s.out = quantileUs(lat, 0.5)
	}
	for _, reg := range e.shardRegistries() {
		reg.SetTiming(false)
	}
	back := make([]byte, len(image))
	if err := readPages(writer, file, back); err != nil {
		return r, err
	}
	if !bytes.Equal(back, image) {
		return r, fmt.Errorf("probe %s: file %d reads back different data", spanNames[spanProbeWriteLarge], file)
	}
	return r, nil
}

// readPages fills dst from the start of file, one ReadBlock per page.
func readPages(cl *rfs.Client, file uint32, dst []byte) error {
	for off := 0; off < len(dst); off += pageSize {
		if _, err := cl.ReadBlock(file, uint32(off/pageSize), dst[off:off+pageSize]); err != nil {
			return fmt.Errorf("probe read f%d/b%d: %w", file, off/pageSize, err)
		}
	}
	return nil
}
