package ipc

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

const (
	// udpBatch bounds the recvmmsg/sendmmsg vector length: how many
	// datagrams one kernel crossing can move.
	udpBatch = 32
	// udpQueueDepth bounds receive batches buffered between the rx loops
	// and the handler workers; when full, the rx loops block and further
	// arrivals spill into the kernel socket buffer (and are eventually
	// dropped — the protocol recovers by retransmission, as it does for
	// any datagram loss).
	udpQueueDepth = 512
	// maxHotPeers bounds the connected per-peer sockets.
	maxHotPeers = 4
	// defaultHotThreshold is the number of unicast sends to one peer
	// before it is promoted to a connected socket.
	defaultHotThreshold = 64
	// txPendingMax bounds the egress coalescer's backlog per socket. A
	// sender finding the backlog full pays the per-datagram syscall
	// inline instead of queueing unboundedly — natural backpressure with
	// no drop.
	txPendingMax = 1024
)

// dispatchWorkers sizes a packet-dispatch pool: one worker per available
// CPU, at least 2, and at most limit when limit > 0 (so a large host does
// not hold dozens of idle goroutines per transport).
func dispatchWorkers(limit int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if limit > 0 && w > limit {
		w = limit
	}
	return w
}

// UDPConfig configures a UDPTransport; the zero value gets the defaults.
type UDPConfig struct {
	// Metrics is the observability registry for the transport's net.*
	// counters. Nil gets the transport a private registry; pass the
	// node's registry to scrape transport and node as one unit.
	Metrics *obs.Registry
}

// UDPTransport carries interkernel packets in UDP datagrams — the modern
// stand-in for the paper's "raw Ethernet data link level": an unreliable,
// unordered datagram service with no transport layer on top. Peers are
// registered explicitly (the analogue of the §3.1 logical-host-to-network
// address table) and learned from received packets; Broadcast sends to
// every known peer.
//
// The kernel crossings are amortized (Linux; elsewhere the transport
// degrades to one socket and one crossing per datagram):
//
//   - Receive: each of the SO_REUSEPORT shard sockets (one per CPU,
//     capped at 4) runs an rx loop pulling up to udpBatch datagrams per
//     recvmmsg call into pooled frames, dispatched to a bounded worker
//     pool — so one host's packet processing scales across cores and the
//     handler must be safe for concurrent invocation (Node is). One
//     reference per frame rides the queue to a worker, which releases it
//     when the handler returns; the handler must Retain to keep bytes
//     past its return.
//   - Send: concurrent Sends coalesce into sendmmsg vectors. A Send
//     that finds the socket idle transmits immediately — solo traffic
//     pays no added latency — and then drains whatever queued behind it
//     while it held the socket, so bursts (retransmissions, MoveTo
//     chunk trains from many streams, invalidation fan-out) collapse
//     into a few kernel crossings. Queued sends are fire-and-forget:
//     their write errors are dropped, as datagram loss is — the
//     protocol's retransmission machinery recovers.
//   - Hot peers: after hotThreshold sends to one peer, the peer gets a
//     connect()ed socket (SO_REUSEPORT-bound to the same local port),
//     skipping the per-send peer lookup in the kernel and steering that
//     peer's inbound flow to a dedicated socket outside the shard hash.
type UDPTransport struct {
	addr    *net.UDPAddr
	socks   []*udpSock // socks[0] is the default tx socket; all are rx shards
	handler atomic.Pointer[func(*bufpool.Buf)]
	peers   peerTable
	stats   netCounters
	rxBurst atomic.Int32 // decaying ingress-burstiness gauge, fed by the rx loops

	// hotThreshold is the promotion threshold (defaultHotThreshold);
	// in-package tests lower it to exercise promotion, or raise it out
	// of reach to keep every send on socks[0].
	hotThreshold int

	mu       sync.Mutex
	closed   bool
	started  bool
	hot      map[LogicalHost]*udpSock // nil value: a promotion is dialing
	sendsTo  map[LogicalHost]int
	hotOff   bool // hot-socket dialing failed or is unsupported; stop trying
	queue    chan []*bufpool.Buf
	rxWG     sync.WaitGroup
	workerWG sync.WaitGroup
}

// netCounters are the transport's statistics, named net.* in the
// registry (the node layer's protocol counters are ipc.*; the two
// namespaces never overlap).
type netCounters struct {
	recvs        *obs.Counter // datagrams received
	recvBatches  *obs.Counter // receive kernel crossings that produced them
	sends        *obs.Counter // datagrams sent through the coalescer
	sendBatches  *obs.Counter // send kernel crossings (batched + solo)
	inlineSends  *obs.Counter // sends that bypassed a saturated coalescer
	hotPromotion *obs.Counter // peers promoted to connected sockets
}

func newNetCounters(r *obs.Registry) netCounters {
	return netCounters{
		recvs:        r.Counter("net.recvs"),
		recvBatches:  r.Counter("net.recv_batches"),
		sends:        r.Counter("net.sends"),
		sendBatches:  r.Counter("net.send_batches"),
		inlineSends:  r.Counter("net.inline_sends"),
		hotPromotion: r.Counter("net.hot_promotions"),
	}
}

// udpSock is one socket of the transport: a shard of the shared port,
// or a connected hot-peer socket. Each has its own egress coalescer; the
// platform-specific mmsg vectors live in mm.
type udpSock struct {
	t    *UDPTransport
	conn *net.UDPConn
	peer *net.UDPAddr // non-nil: connected to this peer
	mm   mmsgState

	mu       sync.Mutex
	pending  []txMsg
	flushing bool
}

// txMsg is one coalesced outbound datagram. The frame is the
// coalescer's reference, released after the transmit; addr is nil on
// connected sockets.
type txMsg struct {
	frame *bufpool.Buf
	addr  *net.UDPAddr
}

// NewUDPTransport opens the transport on the given address (use
// "127.0.0.1:0" for tests) with a private metrics registry. The rx
// loops start when SetHandler installs the upcall, so no packet can
// arrive before there is a handler for it.
func NewUDPTransport(listen string) (*UDPTransport, error) {
	return NewUDPTransportConfig(listen, UDPConfig{})
}

// NewUDPTransportConfig is NewUDPTransport with an explicit
// configuration.
func NewUDPTransportConfig(listen string, cfg UDPConfig) (*UDPTransport, error) {
	conns, err := listenBatch(listen, dispatchWorkers(4))
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	t := &UDPTransport{
		addr:         conns[0].LocalAddr().(*net.UDPAddr),
		hotThreshold: defaultHotThreshold,
		hot:          make(map[LogicalHost]*udpSock),
		sendsTo:      make(map[LogicalHost]int),
		hotOff:       !batchingAvailable,
		queue:        make(chan []*bufpool.Buf, udpQueueDepth),
		stats:        newNetCounters(reg),
	}
	t.peers.init()
	for _, c := range conns {
		t.socks = append(t.socks, newUDPSock(t, c, nil))
	}
	return t, nil
}

func newUDPSock(t *UDPTransport, conn *net.UDPConn, peer *net.UDPAddr) *udpSock {
	s := &udpSock{t: t, conn: conn, peer: peer}
	s.mm.init(conn, peer != nil)
	return s
}

// Addr returns the transport's bound UDP address (shared by all shards).
func (t *UDPTransport) Addr() *net.UDPAddr { return t.addr }

// AddPeer registers the network address of a logical host.
func (t *UDPTransport) AddPeer(host LogicalHost, addr *net.UDPAddr) {
	t.peers.add(host, addr)
}

// Send implements Transport: the packet is coalesced with whatever else
// is in flight toward the same socket, copied into a pooled frame if it
// has to wait for a flusher.
func (t *UDPTransport) Send(to LogicalHost, pkt []byte) error {
	return t.sendPkt(to, pkt, nil)
}

// SendBuf implements BufSender: like Send, but a deferred transmit
// retains the caller's pooled frame across the egress queue instead of
// copying the bytes — the zero-copy path for reply and bulk-chunk
// frames that already live in the pool.
func (t *UDPTransport) SendBuf(to LogicalHost, f *bufpool.Buf) error {
	return t.sendPkt(to, f.Data, f)
}

func (t *UDPTransport) sendPkt(to LogicalHost, pkt []byte, f *bufpool.Buf) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	addr := t.peers.get(to)
	if addr == nil {
		// Unknown host: broadcast, as the kernel does (§3.1).
		return t.Broadcast(pkt)
	}
	s := t.sockFor(to, addr)
	if s.peer != nil {
		addr = nil // connected socket: the kernel already knows the peer
	}
	return s.send(pkt, f, addr)
}

// sockFor picks the socket for a peer, promoting it to a connected
// socket once it has seen hotThreshold sends (and demoting a hot socket
// whose peer rebound to a different address).
func (t *UDPTransport) sockFor(to LogicalHost, addr *net.UDPAddr) *udpSock {
	t.mu.Lock()
	if s, ok := t.hot[to]; ok {
		if s == nil {
			// Another sender is dialing this peer's socket; use the
			// shard socket until it lands.
			t.mu.Unlock()
			return t.socks[0]
		}
		if sameUDPAddr(s.peer, addr) {
			t.mu.Unlock()
			return s
		}
		// The peer rebound: the connected socket points at a dead
		// address. Drop it; the peer can earn a fresh one.
		delete(t.hot, to)
		t.sendsTo[to] = 0
		t.mu.Unlock()
		_ = s.conn.Close() // its rx loop exits; rxWG accounts for it
		return t.socks[0]
	}
	if t.hotOff || len(t.hot) >= maxHotPeers {
		t.mu.Unlock()
		return t.socks[0]
	}
	t.sendsTo[to]++
	if t.sendsTo[to] < t.hotThreshold {
		t.mu.Unlock()
		return t.socks[0]
	}
	// Reserve the slot before dialing outside the lock; concurrent
	// senders see the reservation and keep using the shard socket.
	t.hot[to] = nil
	t.mu.Unlock()

	conn, err := dialHot(t.addr, addr)
	t.mu.Lock()
	if err != nil || t.closed {
		delete(t.hot, to)
		if err != nil {
			t.hotOff = true // e.g. the address is taken: stop retrying
		}
		t.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		return t.socks[0]
	}
	s := newUDPSock(t, conn, addr)
	t.hot[to] = s
	started := t.started
	if started {
		t.rxWG.Add(1)
	}
	t.mu.Unlock()
	t.stats.hotPromotion.Add(1)
	if started {
		go t.rxLoop(s)
	}
	return s
}

// send coalesces one datagram onto the socket. If the socket is idle
// the caller becomes the flusher: it transmits immediately (no batching
// latency when traffic is sparse) and then drains anything that queued
// behind it. Otherwise the datagram is left for the active flusher —
// retaining the caller's pooled frame f when it has one (zero-copy),
// copying the bytes into a fresh frame when it doesn't. A saturated
// backlog falls back to an inline per-datagram write — backpressure,
// not loss.
//
// When the transport's own ingress is arriving in multi-datagram
// batches (rxBurst), traffic is gang-scheduled, not sparse — and on few
// cores the goroutines holding the response datagrams are runnable but
// not yet run, so a flusher that transmitted at once would ship a
// vector of one. The flusher instead yields the processor once; the
// other senders run, find the socket busy, and queue — and the whole
// gang leaves in one sendmmsg. Sparse traffic never sees the yield:
// solo receives decay the gauge to zero.
func (s *udpSock) send(pkt []byte, f *bufpool.Buf, addr *net.UDPAddr) error {
	s.mu.Lock()
	if !s.flushing {
		s.flushing = true
		s.mu.Unlock()
		if s.t.rxBurst.Load() > 1 {
			runtime.Gosched()
			s.mu.Lock()
			if len(s.pending) > 0 {
				// A gang did queue behind the yield: join it (the whole
				// batch becomes fire-and-forget, like any queued send).
				s.pending = append(s.pending, queuedTx(pkt, f, addr))
				s.mu.Unlock()
				s.drain()
				return nil
			}
			s.mu.Unlock()
		}
		s.t.stats.sends.Add(1)
		s.t.stats.sendBatches.Add(1)
		err := s.writeOne(pkt, addr) // direct: borrows pkt, no copy
		s.drain()
		return err
	}
	if len(s.pending) >= txPendingMax {
		s.mu.Unlock()
		s.t.stats.inlineSends.Add(1)
		return s.writeOne(pkt, addr)
	}
	s.pending = append(s.pending, queuedTx(pkt, f, addr))
	s.mu.Unlock()
	return nil
}

// queuedTx builds the backlog entry for a deferred transmit: callers
// that hand over a pooled frame lend a reference (released by drain);
// bare byte slices are only valid until send returns, so they are
// copied into a frame the backlog owns.
func queuedTx(pkt []byte, f *bufpool.Buf, addr *net.UDPAddr) txMsg {
	if f != nil {
		return txMsg{frame: f.Retain(), addr: addr}
	}
	c := bufpool.Get(len(pkt))
	copy(c.Data, pkt)
	return txMsg{frame: c, addr: addr}
}

// drain flushes the backlog that accumulated while the caller held the
// socket, batch by batch, and clears the flushing flag only once the
// backlog is observed empty under the lock — so no txMsg is ever left
// behind without a flusher responsible for it.
func (s *udpSock) drain() {
	for {
		s.mu.Lock()
		batch := s.pending
		s.pending = nil
		if len(batch) == 0 {
			s.flushing = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		for len(batch) > 0 {
			n := min(len(batch), udpBatch)
			s.t.stats.sends.Add(int64(n))
			s.t.stats.sendBatches.Add(1)
			s.writeBatch(batch[:n]) // best effort; errors are datagram loss
			for i := 0; i < n; i++ {
				batch[i].frame.Release()
				batch[i] = txMsg{}
			}
			batch = batch[n:]
		}
	}
}

// Broadcast implements Transport. Delivery is best effort per peer: one
// unreachable address must not starve the rest of the mesh (a broadcast
// name lookup still has to reach the peers that can answer), so errors
// are collected rather than aborting the sweep, and the first one is
// returned. The address snapshot is cached in the peer table and reused
// until AddPeer or learning actually changes the peer set. Broadcasts
// are rare (name lookups), so they bypass the coalescer — concurrent
// datagram writes on one socket are safe.
func (t *UDPTransport) Broadcast(pkt []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var first error
	for _, a := range t.peers.snapshot() {
		if err := t.socks[0].writeOne(pkt, a); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeOne transmits a single datagram, bypassing the batch vectors.
func (s *udpSock) writeOne(pkt []byte, addr *net.UDPAddr) error {
	if addr == nil {
		_, err := s.conn.Write(pkt)
		return err
	}
	_, err := s.conn.WriteToUDP(pkt, addr)
	return err
}

// readOne is the per-datagram receive shared by the non-Linux build and
// the fallback when the raw descriptor is unavailable: fill scratch[0],
// record its length, learn the sender, report one datagram. A refusal
// the kernel reports for an earlier send is skipped, as readBatch does.
func (s *udpSock) readOne(scratch [][]byte, lens []int, peers *peerTable) (int, error) {
	for {
		n, from, err := s.conn.ReadFromUDP(scratch[0])
		if errors.Is(err, syscall.ECONNREFUSED) {
			continue
		}
		if err != nil {
			return 0, err
		}
		lens[0] = n
		peers.learn(scratch[0][:n], from)
		return 1, nil
	}
}

// rxLoop drives one socket: each iteration pulls up to udpBatch
// datagrams in one kernel crossing into loop-owned scratch slabs, wraps
// each in a right-sized pooled frame, and hands the frames' single
// references to the dispatch queue as one batch (one channel operation
// per kernel crossing, not per datagram). The recvmmsg vector is backed
// by the scratch slabs, not pooled frames: recvmmsg needs its buffers
// posted before the blocking read, and a pooled vector posted that way
// would stay checked out of the pool for as long as the socket sits
// idle — udpBatch frames pinned per socket, reading as a leak to
// anything auditing bufpool.Outstanding. Pool frames are taken only for
// datagrams that actually arrived. Datagrams larger than a maximal
// interkernel packet are truncated and fail the decode checksum, as any
// non-protocol traffic does.
func (t *UDPTransport) rxLoop(s *udpSock) {
	defer t.rxWG.Done()
	scratch := make([][]byte, udpBatch)
	for i := range scratch {
		scratch[i] = make([]byte, vproto.MaxWireSize)
	}
	lens := make([]int, udpBatch)
	for {
		n, err := s.readBatch(scratch, lens, &t.peers)
		if err != nil {
			return // closed
		}
		t.stats.recvs.Add(int64(n))
		t.stats.recvBatches.Add(1)
		// Feed the burstiness gauge: a multi-datagram batch arms the
		// egress gang-coalescing, solo batches decay it back off.
		if n > 1 {
			t.rxBurst.Store(int32(n))
		} else if v := t.rxBurst.Load(); v > 0 {
			t.rxBurst.Store(v - 1)
		}
		batch := make([]*bufpool.Buf, n)
		for i := 0; i < n; i++ {
			f := bufpool.Get(lens[i])
			copy(f.Data, scratch[i][:lens[i]])
			batch[i] = f
		}
		t.queue <- batch
	}
}

// worker drains the queue batch by batch, invoking the handler on each
// frame and returning the queue's reference afterwards. The handler is
// an atomic pointer rather than a field under t.mu, so dispatch never
// contends on the transport mutex and later SetHandler calls still take
// effect. Around a multi-datagram batch the tx sockets are corked, so
// the replies the handlers generate coalesce into sendmmsg vectors
// instead of paying one kernel crossing each. Request traffic arriving
// in batches is exactly the traffic whose responses leave in batches.
func (t *UDPTransport) worker() {
	defer t.workerWG.Done()
	var corked []*udpSock
	for batch := range t.queue {
		if len(batch) > 1 {
			corked = t.cork(corked[:0])
		}
		for _, f := range batch {
			if h := t.handler.Load(); h != nil {
				(*h)(f)
			}
			f.Release()
		}
		for _, s := range corked {
			s.drain()
		}
		corked = corked[:0]
	}
}

// cork claims flusher duty on every socket that has no active flusher,
// appending the claimed sockets to dst. Sends issued while a socket is
// corked queue onto its backlog; the caller must drain each claimed
// socket afterwards. Sockets already mid-flush are skipped — their
// active flusher's drain loop will pick up anything queued behind it.
func (t *UDPTransport) cork(dst []*udpSock) []*udpSock {
	t.mu.Lock()
	all := append(dst, t.socks...)
	for _, s := range t.hot {
		if s != nil {
			all = append(all, s)
		}
	}
	t.mu.Unlock()
	n := 0
	for _, s := range all {
		s.mu.Lock()
		if !s.flushing {
			s.flushing = true
			all[n] = s
			n++
		}
		s.mu.Unlock()
	}
	return all[:n]
}

// SetHandler implements Transport. The first call starts the rx loops
// and worker pool; installing the handler before any packet can be read
// means no early datagram is dropped for want of one.
func (t *UDPTransport) SetHandler(h func(*bufpool.Buf)) {
	if h == nil {
		t.handler.Store(nil)
	} else {
		t.handler.Store(&h)
	}
	workers := dispatchWorkers(16)
	t.mu.Lock()
	start := !t.started && !t.closed
	var socks []*udpSock
	if start {
		t.started = true
		socks = append(socks, t.socks...)
		for _, s := range t.hot {
			if s != nil {
				socks = append(socks, s)
			}
		}
		t.rxWG.Add(len(socks))
		t.workerWG.Add(workers)
	}
	t.mu.Unlock()
	if start {
		for _, s := range socks {
			go t.rxLoop(s)
		}
		for i := 0; i < workers; i++ {
			go t.worker()
		}
	}
}

// Close implements Transport: close every socket (shards and hot
// peers), wait for the rx loops, then drain and stop the workers.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	started := t.started
	conns := make([]*net.UDPConn, 0, len(t.socks)+len(t.hot))
	for _, s := range t.socks {
		conns = append(conns, s.conn)
	}
	for _, s := range t.hot {
		if s != nil {
			conns = append(conns, s.conn)
		}
	}
	t.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.rxWG.Wait()
	if started {
		close(t.queue)
	}
	t.workerWG.Wait()
	return first
}
