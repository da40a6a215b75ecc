package ipc

import (
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/vproto"
)

// broadcastCounter counts the name-lookup broadcasts a node sends.
type broadcastCounter struct {
	Transport
	n atomic.Int32
}

func (c *broadcastCounter) Broadcast(pkt []byte) error {
	c.n.Add(1)
	return c.Transport.Broadcast(pkt)
}

// lookupPair is a client node (host 1, broadcasts counted) and a server
// node (host 2) on a lossless mesh, with the default 100 ms lookup round
// and 3 retries.
func lookupPair(t *testing.T) (*Node, *Node, *broadcastCounter) {
	t.Helper()
	mesh := NewMemNetwork(1, FaultConfig{})
	cfg := NodeConfig{GetPidTimeout: 100 * time.Millisecond, GetPidRetries: 3}
	bc := &broadcastCounter{Transport: mesh.Transport(1)}
	na := NewNode(1, bc, cfg)
	nb := NewNode(2, mesh.Transport(2), cfg)
	t.Cleanup(func() {
		_ = na.Close()
		_ = nb.Close()
		mesh.Close()
	})
	return na, nb, bc
}

// TestGetPidLateHolder: a holder that registers 5 ms after the lookup
// starts misses the first broadcast. The lookup's second round starts
// GetPidTimeout/16 later and finds it, so the lookup costs milliseconds
// (about 6 ms idle), not a whole 100 ms round. The bound is the round
// itself: a schedule whose first round lasts GetPidTimeout cannot
// broadcast again, and so cannot resolve, before it ends, while a loaded
// host still has ~90 ms of slack to run a 6 ms lookup.
func TestGetPidLateHolder(t *testing.T) {
	na, nb, _ := lookupPair(t)
	server := echoOn(nb, 1)
	reg := mustAttach(nb, "registrar")
	defer nb.Detach(reg)
	client := mustAttach(na, "client")
	defer na.Detach(client)

	start := time.Now()
	timer := time.AfterFunc(5*time.Millisecond, func() { reg.SetPid(7, server, ScopeBoth) })
	defer timer.Stop()
	got := client.GetPid(7, ScopeRemote)
	elapsed := time.Since(start)
	if got != server {
		t.Fatalf("GetPid = %v, want %v", got, server)
	}
	if round := na.cfg.GetPidTimeout; elapsed >= round {
		t.Fatalf("late holder resolved after %v, want within one %v round", elapsed, round)
	}
}

// TestGetPidUnheldPatience: backing off does not shorten the patience.
// A name nobody holds resolves to Nil no sooner than
// (GetPidRetries+1)·GetPidTimeout = 400 ms and within one round after
// that, having broadcast more often than the four fixed rounds did but
// no more than the eight the schedule allows.
func TestGetPidUnheldPatience(t *testing.T) {
	na, _, bc := lookupPair(t)
	client := mustAttach(na, "client")
	defer na.Detach(client)

	start := time.Now()
	got := client.GetPid(99, ScopeRemote)
	elapsed := time.Since(start)
	if got != vproto.Nil {
		t.Fatalf("unheld name resolved to %v", got)
	}
	if elapsed < 400*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("unheld lookup gave up after %v, want within [400ms, 500ms]", elapsed)
	}
	if n := bc.n.Load(); n <= 4 || n > 8 {
		t.Fatalf("unheld lookup sent %d broadcasts, want 5..8", n)
	}
}
