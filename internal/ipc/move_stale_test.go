package ipc

import (
	"bytes"
	"sync"
	"testing"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// firstMoveCapture records the first MoveTo data packet a node sends.
type firstMoveCapture struct {
	Transport
	mu    sync.Mutex
	frame []byte
}

func (c *firstMoveCapture) Send(to LogicalHost, pkt []byte) error {
	var p vproto.Packet
	if vproto.DecodeInto(&p, pkt) == nil && p.Kind == vproto.KindMoveToData && p.Offset == 0 {
		c.mu.Lock()
		if c.frame == nil {
			c.frame = append([]byte(nil), pkt...)
		}
		c.mu.Unlock()
	}
	return c.Transport.Send(to, pkt)
}

// TestStaleMoveToDataRejected: a late duplicate of an earlier exchange's
// first MoveTo packet, delivered after a later exchange's transfer has
// filled the segment, must not overwrite it. Sequence numbers order the
// transfers between one pair of processes, and the exchange in between
// may be the sender's transfer to another process on the same node.
func TestStaleMoveToDataRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clients []int // which client process runs each exchange
	}{
		{"same client", []int{0, 0, 0}},
		{"another client between", []int{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := NewMemNetwork(1, FaultConfig{})
			capture := &firstMoveCapture{Transport: mesh.Transport(2)}
			na := NewNode(1, mesh.Transport(1), NodeConfig{})
			nb := NewNode(2, capture, NodeConfig{})
			t.Cleanup(func() {
				_ = na.Close()
				_ = nb.Close()
				mesh.Close()
			})

			const size = 3000
			images := make([][]byte, len(tc.clients))
			for i := range images {
				images[i] = bytes.Repeat([]byte{byte(0xa0 + i)}, size)
			}
			moved := make(chan int)
			proceed := make(chan struct{})
			srv := mustSpawn(nb, "server", func(p *Proc) {
				for i := range images {
					_, src, err := p.Receive()
					if err != nil {
						return
					}
					if err := p.MoveTo(src, 0, images[i]); err != nil {
						t.Error(err)
					}
					moved <- i
					<-proceed
					var reply Message
					_ = p.Reply(&reply, src)
				}
			})
			clients := []*Proc{mustAttach(na, "client0"), mustAttach(na, "client1")}
			defer na.Detach(clients[0])
			defer na.Detach(clients[1])

			done := make(chan [][]byte, 1)
			go func() {
				var got [][]byte
				for _, c := range tc.clients {
					buf := make([]byte, size)
					var m Message
					if err := clients[c].Send(&m, srv.Pid(), &Segment{Data: buf, Access: SegWrite}); err != nil {
						t.Error(err)
					}
					got = append(got, buf)
				}
				done <- got
			}()

			for range images {
				if <-moved == len(images)-1 {
					// The last transfer has filled its segment; replay
					// the first exchange's first packet into it before
					// the reply releases the client.
					capture.mu.Lock()
					stale := capture.frame
					capture.mu.Unlock()
					if stale == nil {
						t.Error("no MoveTo data packet captured")
					} else {
						f := bufpool.Get(len(stale))
						copy(f.Data, stale)
						na.handlePacket(f)
						f.Release()
					}
				}
				proceed <- struct{}{}
			}
			got := <-done
			for i, buf := range got {
				if !bytes.Equal(buf, images[i]) {
					t.Fatalf("exchange %d: segment holds %#x at byte 0, want %#x", i, buf[0], images[i][0])
				}
			}
		})
	}
}
