package ipc

import (
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// SetPid associates pid with a well-known logical id in the given scope
// (§2.1). Any process on the node may register names.
func (p *Proc) SetPid(logicalID uint32, pid Pid, scope Scope) {
	t := &p.node.names
	t.mu.Lock()
	t.names[logicalID] = nameEntry{pid: pid, scope: scope}
	t.mu.Unlock()
}

// GetPid resolves a logical id, broadcasting on the network when the
// mapping is not known locally (§3.1); it returns vproto.Nil when the
// lookup fails. The first round lasts GetPidTimeout/16 and each later
// one doubles up to GetPidTimeout, all within a patience of
// (GetPidRetries+1)·GetPidTimeout — with the defaults, eight broadcasts
// over 400 ms for a name nobody holds.
func (p *Proc) GetPid(logicalID uint32, scope Scope) Pid {
	n := p.node
	t := &n.names
	t.mu.Lock()
	if e, ok := t.names[logicalID]; ok && e.scope&scope != 0 {
		t.mu.Unlock()
		return e.pid
	}
	if scope&ScopeRemote == 0 || n.closed.Load() {
		t.mu.Unlock()
		return vproto.Nil
	}
	ch := make(chan Pid, 1)
	t.lookups[logicalID] = append(t.lookups[logicalID], ch)
	t.mu.Unlock()

	pkt := &vproto.Packet{
		Kind:  vproto.KindGetPid,
		Seq:   n.nextSeq(),
		Src:   p.pid,
		Flags: vproto.FlagScopeRemote,
	}
	pkt.Msg.SetWord(wordNameID, logicalID)
	f := bufpool.Get(pkt.WireSize())
	if _, err := pkt.EncodeInto(f.Data); err != nil {
		f.Release()
		return vproto.Nil
	}
	defer f.Release()

	defer func() {
		// Remove the waiter (if it is still registered).
		t.mu.Lock()
		ws := t.lookups[logicalID]
		for i, w := range ws {
			if w == ch {
				t.lookups[logicalID] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(t.lookups[logicalID]) == 0 {
			delete(t.lookups, logicalID)
		}
		t.mu.Unlock()
	}()

	// Rounds back off from a short first one: a holder that registers a
	// moment after the lookup starts (a cluster booting in any order) or
	// a lost broadcast costs milliseconds, not a whole GetPidTimeout.
	// The deadline keeps the patience at (GetPidRetries+1)·GetPidTimeout.
	timeout := n.cfg.GetPidTimeout
	deadline := time.Now().Add(time.Duration(n.cfg.GetPidRetries+1) * timeout)
	for round := max(timeout/16, 1); ; round = min(2*round, timeout) {
		wait := min(round, time.Until(deadline))
		if wait <= 0 {
			return vproto.Nil
		}
		_ = n.transport.Broadcast(f.Data)
		timer := time.NewTimer(wait)
		select {
		case pid := <-ch:
			timer.Stop()
			return pid
		case <-timer.C:
		}
	}
}

// handleGetPid answers broadcast lookups this node can resolve.
func (n *Node) handleGetPid(pkt *vproto.Packet) {
	id := pkt.Msg.Word(wordNameID)
	t := &n.names
	t.mu.Lock()
	e, ok := t.names[id]
	t.mu.Unlock()
	if !ok || e.scope&ScopeRemote == 0 {
		return
	}
	out := &vproto.Packet{
		Kind: vproto.KindGetPidReply,
		Seq:  pkt.Seq,
		Dst:  pkt.Src,
	}
	out.Msg.SetWord(wordNameID, id)
	out.Msg.SetWord(wordNamePid, uint32(e.pid))
	n.send(out, pkt.Src.Host())
}

// GetPidAll resolves every holder of a logical id reachable within a
// bounded window — the enumeration primitive behind rfs.DiscoverAll. Where
// GetPid returns on the first responder, GetPidAll keeps broadcasting one
// lookup round per GetPidTimeout until the window closes and collects
// every distinct pid that answered (a locally registered mapping is
// included without a broadcast). A window of zero selects the same
// patience GetPid has: (GetPidRetries+1)·GetPidTimeout. Lossy networks
// are the point of the repeated rounds — each round re-solicits the
// responders whose earlier replies (or our earlier requests) were
// dropped. The window, not a backoff, bounds the collection, so every
// round lasts the full GetPidTimeout.
func (p *Proc) GetPidAll(logicalID uint32, scope Scope, window time.Duration) []Pid {
	n := p.node
	t := &n.names
	var pids []Pid
	seen := make(map[Pid]bool)
	t.mu.Lock()
	if e, ok := t.names[logicalID]; ok && e.scope&scope != 0 {
		seen[e.pid] = true
		pids = append(pids, e.pid)
	}
	if scope&ScopeRemote == 0 || n.closed.Load() {
		t.mu.Unlock()
		return pids
	}
	// Buffered generously: replies beyond the buffer are dropped by the
	// non-blocking send in handleGetPidReply, and the next round
	// re-solicits them.
	ch := make(chan Pid, 128)
	t.lookups[logicalID] = append(t.lookups[logicalID], ch)
	t.mu.Unlock()

	pkt := &vproto.Packet{
		Kind:  vproto.KindGetPid,
		Seq:   n.nextSeq(),
		Src:   p.pid,
		Flags: vproto.FlagScopeRemote,
	}
	pkt.Msg.SetWord(wordNameID, logicalID)
	f := bufpool.Get(pkt.WireSize())
	if _, err := pkt.EncodeInto(f.Data); err != nil {
		f.Release()
		return pids
	}
	defer f.Release()

	defer func() {
		t.mu.Lock()
		ws := t.lookups[logicalID]
		for i, w := range ws {
			if w == ch {
				t.lookups[logicalID] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(t.lookups[logicalID]) == 0 {
			delete(t.lookups, logicalID)
		}
		t.mu.Unlock()
	}()

	if window <= 0 {
		window = time.Duration(n.cfg.GetPidRetries+1) * n.cfg.GetPidTimeout
	}
	deadline := time.Now().Add(window)
	for {
		_ = n.transport.Broadcast(f.Data)
		round := time.NewTimer(n.cfg.GetPidTimeout)
	collect:
		for {
			select {
			case pid := <-ch:
				if !seen[pid] {
					seen[pid] = true
					pids = append(pids, pid)
				}
			case <-round.C:
				break collect
			}
		}
		if !time.Now().Before(deadline) {
			return pids
		}
	}
}

// handleGetPidReply wakes outstanding lookups. Waiters stay registered —
// each removes itself when it is done — so an all-responders collection
// (GetPidAll) keeps receiving after the first reply; GetPid waiters
// simply return on the first pid delivered and deregister themselves.
func (n *Node) handleGetPidReply(pkt *vproto.Packet) {
	id := pkt.Msg.Word(wordNameID)
	pid := Pid(pkt.Msg.Word(wordNamePid))
	t := &n.names
	t.mu.Lock()
	ws := append([]chan Pid(nil), t.lookups[id]...)
	t.mu.Unlock()
	for _, ch := range ws {
		select {
		case ch <- pid:
		default:
		}
	}
}
