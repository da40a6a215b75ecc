package ipc

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// metric reads a registered counter or gauge by name, as a stats scrape
// does; a name nobody registered fails the test instead of reading 0.
func metric(t testing.TB, reg *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := reg.Value(name)
	if !ok {
		t.Fatalf("metric %q is not registered", name)
	}
	return v
}

// testWire encodes a small data packet from host src to host dst.
func testWire(t *testing.T, src, dst LogicalHost, size int) []byte {
	t.Helper()
	pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: 1, Dst: vproto.MakePid(dst, 1),
		Src: vproto.MakePid(src, 1), Count: uint32(size), Data: make([]byte, size)}
	wire, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// hotPair opens two loopback transports that promote a peer to a
// connected socket on its first send, so the traffic of the Batched*
// checks below rides the hot-peer path (Linux) rather than socks[0].
func hotPair(t *testing.T) (*UDPTransport, *UDPTransport, *obs.Registry, *obs.Registry) {
	t.Helper()
	ta, regA := loopbackUDP(t)
	tb, regB := loopbackUDP(t)
	ta.hotThreshold, tb.hotThreshold = 1, 1
	return ta, tb, regA, regB
}

// requireHot fails the test if the transport behind reg made no
// hot-peer promotion where the fast path exists.
func requireHot(t *testing.T, reg *obs.Registry) {
	t.Helper()
	if batchingAvailable && metric(t, reg, "net.hot_promotions") == 0 {
		t.Fatal("expected a hot-peer promotion at threshold 1")
	}
}

// TestBatchedExchange is TestUDPExchange over hot connected sockets.
func TestBatchedExchange(t *testing.T) {
	ta, tb, regA, _ := hotPair(t)
	na, nb := nodePair(t, ta, tb)
	checkExchange(t, na, nb)
	requireHot(t, regA)
}

// TestBatchedPageReadAndWrite is TestUDPPageReadAndWrite over hot
// connected sockets: segment data and replies both cross them.
func TestBatchedPageReadAndWrite(t *testing.T) {
	ta, tb, regA, regB := hotPair(t)
	na, nb := nodePair(t, ta, tb)
	checkPageReadAndWrite(t, na, nb)
	requireHot(t, regA)
	requireHot(t, regB)
}

// TestBatchedDispatchBufferLifetime is TestUDPDispatchBufferLifetime
// with the sender on a hot connected socket.
func TestBatchedDispatchBufferLifetime(t *testing.T) {
	ta, tb, regA, _ := hotPair(t)
	checkDispatchBufferLifetime(t, ta, tb)
	requireHot(t, regA)
}

// TestBatchedLargeMoveTo pushes a 256 KB MoveTo chunk train — the
// workload the egress coalescer exists for — and checks both integrity
// and that the transport actually batched some of the train (Linux).
func TestBatchedLargeMoveTo(t *testing.T) {
	ta, _ := loopbackUDP(t)
	tb, regB := loopbackUDP(t)
	// A low hot threshold also drives the sender onto a connected
	// socket partway through the train.
	ta.hotThreshold, tb.hotThreshold = 8, 8
	na, nb := nodePair(t, ta, tb)
	const size = 256 * 1024
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i * 13)
	}
	loader := mustSpawn(nb, "loader", func(p *Proc) {
		_, src, err := p.Receive()
		if err != nil {
			return
		}
		if err := p.MoveTo(src, 0, img); err != nil {
			t.Errorf("MoveTo: %v", err)
		}
		var reply Message
		_ = p.Reply(&reply, src)
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)
	buf := make([]byte, size)
	var m Message
	if err := client.Send(&m, loader.Pid(), &Segment{Data: buf, Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("256 KB image corrupted over batched UDP")
	}
	if batchingAvailable {
		recvs, batches := metric(t, regB, "net.recvs"), metric(t, regB, "net.recv_batches")
		if batches == 0 || recvs < batches {
			t.Fatalf("no batched receives recorded: %d datagrams in %d batches", recvs, batches)
		}
		if metric(t, regB, "net.hot_promotions") == 0 {
			t.Fatal("expected a hot-peer promotion at threshold 8")
		}
	}
}

// TestBatchedCoalesce pins the egress coalescer's contract: sends that
// arrive while a flusher holds the socket are queued, and the flusher
// then moves the whole backlog in udpBatch-sized sendmmsg vectors — far
// fewer kernel crossings than datagrams. Timing-based concurrency can't
// force that overlap deterministically (on one CPU a solo send always
// completes first, which is exactly the no-added-latency guarantee), so
// the test holds the flushing flag itself, queues a burst, and drains.
func TestBatchedCoalesce(t *testing.T) {
	ta, regA := loopbackUDP(t)
	ta.hotThreshold = math.MaxInt // every send stays on socks[0]
	tb, _ := loopbackUDP(t)
	ta.AddPeer(2, tb.Addr())

	var got atomic.Int32
	tb.SetHandler(func(f *bufpool.Buf) { got.Add(1) })

	const burst = 100
	wire := testWire(t, 1, 2, 256)

	// Pose as an in-flight flusher so every Send queues behind us.
	s := ta.socks[0]
	s.mu.Lock()
	s.flushing = true
	s.mu.Unlock()
	for i := 0; i < burst; i++ {
		if err := ta.Send(2, wire); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	queued := len(s.pending)
	s.mu.Unlock()
	if queued != burst {
		t.Fatalf("queued %d of %d sends behind the flusher", queued, burst)
	}
	s.drain() // what the real flusher runs after its own write

	if n := metric(t, regA, "net.sends"); n != burst {
		t.Fatalf("coalescer accounted %d sends, want %d", n, burst)
	}
	if want, n := int64((burst+udpBatch-1)/udpBatch), metric(t, regA, "net.send_batches"); n != want {
		t.Fatalf("burst of %d took %d kernel crossings, want %d", burst, n, want)
	}
	deadline := time.Now().Add(3 * time.Second)
	for got.Load() < burst/2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() < burst/2 {
		t.Fatalf("receiver saw only %d/%d datagrams", got.Load(), burst)
	}
}

// TestBatchedConcurrentSends hammers Send from many goroutines for the
// race detector and for conservation: every datagram must be accounted
// as coalesced or inline, whichever path it took. The peer is promoted
// to a hot socket while the senders run, and exactly once.
func TestBatchedConcurrentSends(t *testing.T) {
	ta, regA := loopbackUDP(t)
	ta.hotThreshold = 8
	tb, _ := loopbackUDP(t)
	ta.AddPeer(2, tb.Addr())
	tb.SetHandler(func(f *bufpool.Buf) {})

	const senders = 16
	const perSender = 64
	wire := testWire(t, 1, 2, 256)
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				_ = ta.Send(2, wire)
			}
		}()
	}
	wg.Wait()
	sends, inline := metric(t, regA, "net.sends"), metric(t, regA, "net.inline_sends")
	if want := int64(senders * perSender); sends+inline != want {
		t.Fatalf("sends accounted %d+%d, want %d", sends, inline, want)
	}
	if batchingAvailable {
		if n := metric(t, regA, "net.hot_promotions"); n != 1 {
			t.Fatalf("one peer promoted %d times", n)
		}
	}
}

// TestHotPromotionDialsOnce races senders at the promotion threshold:
// while one sender dials the peer's connected socket, the others must
// see the reserved slot and keep using the shard socket. A second dial
// would overwrite the first socket without closing it, and its rx loop
// would then hold Close forever.
func TestHotPromotionDialsOnce(t *testing.T) {
	if !batchingAvailable {
		t.Skip("hot-peer sockets require the linux fast path")
	}
	wire := testWire(t, 1, 2, 32)
	for round := 0; round < 20; round++ {
		reg := obs.New()
		ta, err := NewUDPTransportConfig("127.0.0.1:0", UDPConfig{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		ta.hotThreshold = 1
		ta.SetHandler(func(f *bufpool.Buf) {})
		sink, _ := loopbackUDP(t)
		ta.AddPeer(2, sink.Addr())

		const senders = 8
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(senders)
		for i := 0; i < senders; i++ {
			go func() {
				defer wg.Done()
				<-release
				_ = ta.Send(2, wire)
			}()
		}
		close(release)
		wg.Wait()
		promotions := metric(t, reg, "net.hot_promotions")

		closed := make(chan error, 1)
		go func() { closed <- ta.Close() }()
		select {
		case <-closed:
		case <-time.After(3 * time.Second):
			t.Fatalf("round %d: Close hung after %d promotions for one peer", round, promotions)
		}
		if promotions != 1 {
			t.Fatalf("round %d: one peer promoted %d times", round, promotions)
		}
	}
}

// TestHotPeerRestartSameAddress kills a hot peer and restarts it on the
// same address, as Cluster.Restart does. Sends to the dead peer make the
// kernel report ECONNREFUSED on the connected socket's receive side; the
// socket still owns the peer's flow, so its rx loop must read on past
// the refusal or the restarted peer is never heard from again.
func TestHotPeerRestartSameAddress(t *testing.T) {
	if !batchingAvailable {
		t.Skip("hot-peer sockets require the linux fast path")
	}
	ta, regA := loopbackUDP(t)
	ta.hotThreshold = 4
	var got atomic.Int32
	ta.SetHandler(func(f *bufpool.Buf) { got.Add(1) })

	sink1, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink1.SetHandler(func(f *bufpool.Buf) {})
	addr := sink1.Addr()
	ta.AddPeer(2, addr)
	toPeer := testWire(t, 1, 2, 32)
	for i := 0; i < 8; i++ {
		_ = ta.Send(2, toPeer)
	}
	if metric(t, regA, "net.hot_promotions") == 0 {
		t.Fatal("peer was not promoted")
	}

	// The peer dies; each send to it draws an ICMP refusal, paced so the
	// hot socket's rx loop is the one that reads it.
	_ = sink1.Close()
	for i := 0; i < 5; i++ {
		_ = ta.Send(2, toPeer)
		time.Sleep(10 * time.Millisecond)
	}

	sink2, err := NewUDPTransport(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sink2.Close() }()
	sink2.AddPeer(1, ta.Addr())
	fromPeer := testWire(t, 2, 1, 32)
	deadline := time.Now().Add(3 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		_ = sink2.Send(1, fromPeer)
		time.Sleep(10 * time.Millisecond)
	}
	if got.Load() == 0 {
		t.Fatal("the peer restarted on its old address was never heard from")
	}
}

// TestBatchedRxShards verifies that several SO_REUSEPORT shard sockets
// together cover many distinct peer flows: every client transport binds
// its own source port, so the kernel hash spreads them, and every
// datagram must still reach the one logical handler.
func TestBatchedRxShards(t *testing.T) {
	if !batchingAvailable {
		t.Skip("reuseport sharding requires the linux fast path")
	}
	srv, _ := loopbackUDP(t)
	if len(srv.socks) < 2 {
		t.Fatalf("transport opened %d rx shards, want at least 2", len(srv.socks))
	}
	var got atomic.Int32
	srv.SetHandler(func(f *bufpool.Buf) { got.Add(1) })

	const clients = 8
	const perClient = 25
	for c := 0; c < clients; c++ {
		ct, err := NewUDPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ct.AddPeer(9, srv.Addr())
		wire := testWire(t, LogicalHost(c+10), 9, 64)
		for i := 0; i < perClient; i++ {
			if err := ct.Send(9, wire); err != nil {
				t.Fatal(err)
			}
		}
		_ = ct.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for got.Load() < clients*perClient/2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() < clients*perClient/2 {
		t.Fatalf("shards saw only %d/%d datagrams", got.Load(), clients*perClient)
	}
	// The server should also have learned each client's address.
	learned := 0
	for c := 0; c < clients; c++ {
		if srv.peers.get(vproto.LogicalHost(c+10)) != nil {
			learned++
		}
	}
	if learned < clients/2 {
		t.Fatalf("learned only %d/%d client addresses", learned, clients)
	}
}

// TestBatchedBroadcast checks best-effort fan-out over the cached peer
// snapshot, continuing past unreachable peers.
func TestBatchedBroadcast(t *testing.T) {
	ta, _ := loopbackUDP(t)
	var counts [3]atomic.Int32
	for i := 0; i < 3; i++ {
		s, _ := loopbackUDP(t)
		i := i
		s.SetHandler(func(f *bufpool.Buf) { counts[i].Add(1) })
		ta.AddPeer(LogicalHost(i+2), s.Addr())
	}
	wire := testWire(t, 1, 0, 32)
	for i := 0; i < 10; i++ {
		if err := ta.Broadcast(wire); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if counts[0].Load() > 0 && counts[1].Load() > 0 && counts[2].Load() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("broadcast reached %d/%d/%d", counts[0].Load(), counts[1].Load(), counts[2].Load())
}

// TestBatchedHotPeerRebind checks that a hot connected socket is
// demoted when its peer rebinds: traffic must follow the peer to the
// new address instead of wedging on the dead connected socket.
func TestBatchedHotPeerRebind(t *testing.T) {
	if !batchingAvailable {
		t.Skip("hot-peer sockets require the linux fast path")
	}
	ta, regA := loopbackUDP(t)
	ta.hotThreshold = 4
	ta.SetHandler(func(f *bufpool.Buf) {})

	sink1, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var got1 atomic.Int32
	sink1.SetHandler(func(f *bufpool.Buf) { got1.Add(1) })
	ta.AddPeer(2, sink1.Addr())

	wire := testWire(t, 1, 2, 32)
	for i := 0; i < 16; i++ {
		_ = ta.Send(2, wire)
	}
	if metric(t, regA, "net.hot_promotions") == 0 {
		t.Fatal("peer was not promoted")
	}

	// The "server" reboots on a fresh port.
	_ = sink1.Close()
	sink2, _ := loopbackUDP(t)
	var got2 atomic.Int32
	sink2.SetHandler(func(f *bufpool.Buf) { got2.Add(1) })
	ta.AddPeer(2, sink2.Addr())

	for i := 0; i < 16; i++ {
		_ = ta.Send(2, wire)
	}
	deadline := time.Now().Add(3 * time.Second)
	for got2.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got2.Load() == 0 {
		t.Fatal("sends never followed the peer to its new address")
	}
}
