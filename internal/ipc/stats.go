package ipc

import "vkernel/internal/obs"

// nodeCounters holds the node's protocol statistics as named counters in
// the node's obs registry — independent atomics, so hot paths on
// different subsystems never contend on a stats lock, and one uniform
// namespace (`ipc.*`) that OpQueryStats/vstat scrape alongside every
// other subsystem, and that tests and tools read by name through
// Node.Metrics().Value.
type nodeCounters struct {
	remoteSends       *obs.Counter
	remoteReplies     *obs.Counter
	retransmits       *obs.Counter
	dupsFiltered      *obs.Counter
	replyPendingsSent *obs.Counter
	replyPendingsSeen *obs.Counter
	nacksSent         *obs.Counter
	// overloadSheds counts inbound Sends refused by receive-queue
	// backpressure (each remote shed also sends one overload Nack,
	// counted in nacksSent; local sheds appear only here).
	overloadSheds *obs.Counter
	badPackets    *obs.Counter
	moveOps       *obs.Counter
	moveBytes     *obs.Counter
	rttSamples    *obs.Counter
}

// newNodeCounters registers the node counters under their wire-visible
// names. Every protocol counter (retransmits, nacks, sheds) lives here
// exactly once, apart from the transport's own `net.*` counters, so
// every reader sees the same number under the same name.
func newNodeCounters(r *obs.Registry) nodeCounters {
	return nodeCounters{
		remoteSends:       r.Counter("ipc.remote_sends"),
		remoteReplies:     r.Counter("ipc.remote_replies"),
		retransmits:       r.Counter("ipc.retransmits"),
		dupsFiltered:      r.Counter("ipc.dups_filtered"),
		replyPendingsSent: r.Counter("ipc.reply_pendings_sent"),
		replyPendingsSeen: r.Counter("ipc.reply_pendings_seen"),
		nacksSent:         r.Counter("ipc.nacks_sent"),
		overloadSheds:     r.Counter("ipc.overload_sheds"),
		badPackets:        r.Counter("ipc.bad_packets"),
		moveOps:           r.Counter("ipc.move_ops"),
		moveBytes:         r.Counter("ipc.move_bytes"),
		rttSamples:        r.Counter("ipc.rtt_samples"),
	}
}
