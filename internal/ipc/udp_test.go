package ipc

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// udpPair builds two nodes talking over real loopback UDP sockets.
func udpPair(t *testing.T) (*Node, *Node) {
	t.Helper()
	ta, _ := loopbackUDP(t)
	tb, _ := loopbackUDP(t)
	return nodePair(t, ta, tb)
}

// loopbackUDP opens a transport on an ephemeral loopback port whose
// net.* counters land in the returned registry, closed at cleanup.
func loopbackUDP(t *testing.T) (*UDPTransport, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	tr, err := NewUDPTransportConfig("127.0.0.1:0", UDPConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr, reg
}

// nodePair runs hosts 1 and 2 on ta and tb, each knowing the other's
// address. Transport fields a test tunes must be set before this call,
// which starts the rx loops.
func nodePair(t *testing.T, ta, tb *UDPTransport) (*Node, *Node) {
	t.Helper()
	ta.AddPeer(2, tb.Addr())
	tb.AddPeer(1, ta.Addr())
	na := NewNode(1, ta, NodeConfig{RetransmitTimeout: 20 * time.Millisecond, Retries: 20})
	nb := NewNode(2, tb, NodeConfig{RetransmitTimeout: 20 * time.Millisecond, Retries: 20})
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
	})
	return na, nb
}

func TestUDPExchange(t *testing.T) {
	na, nb := udpPair(t)
	checkExchange(t, na, nb)
}

// checkExchange runs five echo round trips from host 1 to host 2.
func checkExchange(t *testing.T, na, nb *Node) {
	t.Helper()
	server := echoOn(nb, 5)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	for i := uint32(1); i <= 5; i++ {
		var m Message
		m.SetWord(1, i)
		if err := client.Send(&m, server, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if m.Word(1) != i*2 {
			t.Fatalf("reply %d = %d", i, m.Word(1))
		}
	}
}

func TestUDPPageReadAndWrite(t *testing.T) {
	na, nb := udpPair(t)
	checkPageReadAndWrite(t, na, nb)
}

// checkPageReadAndWrite writes a 512-byte page to a server on host 2
// with a read-access segment, reads it back with a write-access one and
// compares.
func checkPageReadAndWrite(t *testing.T, na, nb *Node) {
	t.Helper()
	store := make([]byte, 512)
	fs := mustSpawn(nb, "fs", func(p *Proc) {
		buf := make([]byte, 1024)
		for {
			msg, src, n, err := p.ReceiveWithSegment(buf)
			if err != nil {
				return
			}
			var reply Message
			if msg.Word(1) == 1 { // read
				_ = p.ReplyWithSegment(&reply, src, 0, store)
			} else { // write
				copy(store, buf[:n])
				_ = p.Reply(&reply, src)
			}
		}
	})
	client := mustAttach(na, "client")
	defer na.Detach(client)

	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i ^ 0x5A)
	}
	var wm Message
	wm.SetWord(1, 2)
	if err := client.Send(&wm, fs.Pid(), &Segment{Data: page, Access: SegRead}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	var rm Message
	rm.SetWord(1, 1)
	if err := client.Send(&rm, fs.Pid(), &Segment{Data: got, Access: SegWrite}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page did not survive the UDP round trip")
	}
}

// TestUDPDispatchBufferLifetime guards the pooled receive path's
// ownership rule: a frame handed to the dispatch queue from a recvmmsg
// vector must not be recycled while a worker — or anyone the worker lent
// it to — still reads it. The handler holds each frame past its return
// (Retain) and verifies the payload from a separate goroutine after a
// delay; if the rx loop reused frames it had already handed off, the
// delayed readers would observe bytes of newer datagrams (corruption
// below) or race the socket read (caught by -race).
func TestUDPDispatchBufferLifetime(t *testing.T) {
	ta, _ := loopbackUDP(t)
	tb, _ := loopbackUDP(t)
	checkDispatchBufferLifetime(t, ta, tb)
}

// checkDispatchBufferLifetime sends 300 patterned packets from ta to tb,
// whose handler verifies each one after its return.
func checkDispatchBufferLifetime(t *testing.T, ta, tb *UDPTransport) {
	t.Helper()
	ta.AddPeer(2, tb.Addr())

	const packets = 300
	const payload = 512
	var verified, corrupted atomic.Int32
	var wg sync.WaitGroup
	tb.SetHandler(func(f *bufpool.Buf) {
		var pkt vproto.Packet
		if err := vproto.DecodeInto(&pkt, f.Data); err != nil {
			return // startup noise or truncation: not what this test checks
		}
		seq := pkt.Seq
		data := pkt.Data // aliases the pooled frame
		f.Retain()       // keep the frame alive past the handler's return
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Release()
			time.Sleep(2 * time.Millisecond) // let the read loop run far ahead
			for i, b := range data {
				if b != byte(int(seq)*7+i) {
					corrupted.Add(1)
					return
				}
			}
			verified.Add(1)
		}()
	})

	for seq := uint32(1); seq <= packets; seq++ {
		pkt := &vproto.Packet{Kind: vproto.KindMoveToData, Seq: seq, Dst: vproto.MakePid(2, 1),
			Count: payload, Data: make([]byte, payload)}
		for i := range pkt.Data {
			pkt.Data[i] = byte(int(seq)*7 + i)
		}
		buf, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := ta.Send(2, buf); err != nil {
			t.Fatal(err)
		}
		if seq%32 == 0 {
			time.Sleep(time.Millisecond) // pace to keep loopback loss low
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for verified.Load()+corrupted.Load() < packets && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	_ = tb.Close() // quiesce workers before counting
	wg.Wait()
	if corrupted.Load() > 0 {
		t.Fatalf("%d frames were recycled while still lent out", corrupted.Load())
	}
	// Loopback UDP may drop under burst; corruption is the failure mode,
	// loss is not. Still require most packets to have made it through.
	if verified.Load() < packets/2 {
		t.Fatalf("only %d/%d packets verified; transport lost too much", verified.Load(), packets)
	}
}

func TestUDPNameService(t *testing.T) {
	na, nb := udpPair(t)
	server := echoOn(nb, 1)
	reg := mustAttach(nb, "registrar")
	reg.SetPid(42, server, ScopeBoth)
	nb.Detach(reg)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	if got := client.GetPid(42, ScopeBoth); got != server {
		t.Fatalf("GetPid over UDP = %v, want %v", got, server)
	}
}

func TestUDPServerLearnsClientAddress(t *testing.T) {
	// Only the client knows the server's address (as when a workstation
	// boots against a well-known file server). The server must discover
	// the client's address from received packets (§3.1) to reply.
	ta, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer(2, tb.Addr()) // one-directional knowledge
	na := NewNode(1, ta, NodeConfig{RetransmitTimeout: 20 * time.Millisecond})
	nb := NewNode(2, tb, NodeConfig{RetransmitTimeout: 20 * time.Millisecond})
	defer func() { _ = na.Close(); _ = nb.Close() }()

	server := echoOn(nb, 1)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	m.SetWord(1, 4)
	if err := client.Send(&m, server, nil); err != nil {
		t.Fatal(err)
	}
	if m.Word(1) != 8 {
		t.Fatalf("reply = %d", m.Word(1))
	}
}

func TestUDPUnknownPeerBroadcastFallback(t *testing.T) {
	// A node with no unicast mapping for the destination host must fall
	// back to broadcast (§3.1) and still complete the exchange.
	ta, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// a knows b only as "some peer", not as host 2's unicast address:
	// register b under a bogus host so Send(2) misses and broadcasts.
	ta.AddPeer(77, tb.Addr())
	tb.AddPeer(1, ta.Addr())
	na := NewNode(1, ta, NodeConfig{RetransmitTimeout: 20 * time.Millisecond})
	nb := NewNode(2, tb, NodeConfig{RetransmitTimeout: 20 * time.Millisecond})
	defer func() { _ = na.Close(); _ = nb.Close() }()

	server := echoOn(nb, 1)
	client := mustAttach(na, "client")
	defer na.Detach(client)
	var m Message
	m.SetWord(1, 3)
	if err := client.Send(&m, server, nil); err != nil {
		t.Fatal(err)
	}
	if m.Word(1) != 6 {
		t.Fatalf("reply = %d", m.Word(1))
	}
}
