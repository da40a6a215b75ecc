//go:build !(linux && (amd64 || 386 || arm || arm64 || riscv64 || loong64))

// Portable fallback for UDPTransport: without recvmmsg/sendmmsg and
// SO_REUSEPORT the transport degrades to one socket doing per-datagram
// I/O and no connected hot-peer sockets — semantically identical, so the
// tree builds and behaves the same everywhere.

package ipc

import (
	"errors"
	"fmt"
	"net"
)

const batchingAvailable = false

type mmsgState struct{}

func (st *mmsgState) init(conn *net.UDPConn, connected bool) {}

func listenBatch(listen string, shards int) ([]*net.UDPConn, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("ipc: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: listen %q: %w", listen, err)
	}
	return []*net.UDPConn{conn}, nil
}

func dialHot(local, peer *net.UDPAddr) (*net.UDPConn, error) {
	return nil, errors.New("ipc: connected hot-peer sockets require linux")
}

func (s *udpSock) readBatch(scratch [][]byte, lens []int, peers *peerTable) (int, error) {
	return s.readOne(scratch, lens, peers)
}

func (s *udpSock) writeBatch(msgs []txMsg) {
	for _, m := range msgs {
		_ = s.writeOne(m.frame.Data, m.addr)
	}
}
