package rfs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vkernel/internal/obs"
)

// hasSpan reports whether cs's trace ring holds a span named what for
// trace.
func hasSpan(cs *ClusterServer, trace uint32, what string) bool {
	for _, e := range cs.Srv.Metrics().Trace().EventsFor(trace) {
		if e.What == what {
			return true
		}
	}
	return false
}

// writeBlocks writes blocks [from, to) of file through cl.
func writeBlocks(t *testing.T, cl *Client, file, from, to uint32) {
	t.Helper()
	page := make([]byte, 512)
	for blk := from; blk < to; blk++ {
		page[0] = byte(blk)
		if err := cl.WriteBlock(file, blk, page); err != nil {
			t.Fatalf("write block %d: %v", blk, err)
		}
	}
}

// TestTracedWriteMultiNodeTimeline: a client-stamped trace id follows a
// write through every hop it fans out to — the primary's request span,
// the replication fan-out, the replica's apply, and the write-behind
// flush that eventually persists the block — each recorded in its own
// node's trace ring, together forming a cross-node timeline for one
// request. The fan-out leg is recorded whichever catch-up path carries
// the record; the test pins the path instead of racing the replica's
// enrollment: push once the replica is in-sync, pull when it comes back
// from a crash further behind than the push slack.
// Timing stays disabled throughout: tracing alone must be enough to get
// spans (with real durations), while the latency histograms stay empty.
func TestTracedWriteMultiNodeTimeline(t *testing.T) {
	t.Run("push", func(t *testing.T) {
		c := startCluster(t, replConfig(false))
		node := clientNode(t, c)
		router := newRouter(t, node)
		cl := NewVolumeClient(attach(t, node, "traced-writer"), router, 1)
		waitInSync(t, c, 1)
		trace := obs.NewTraceID()
		cl.SetTrace(trace)
		writeBlocks(t, cl, 7, 0, 4)

		primary := shardWithRole(c, 1, RolePrimary)
		replica := shardWithRole(c, 1, RoleReplica)
		if primary == nil || replica == nil {
			t.Fatal("cluster did not come up with a primary and a replica for volume 1")
		}
		// The request span is synchronous with the reply; replication
		// and the write-behind flush land asynchronously, so poll.
		if !hasSpan(primary, trace, "rfs.write_block") {
			t.Fatalf("primary ring has no rfs.write_block span for trace %06x: %+v",
				trace, primary.Srv.Metrics().Trace().Events())
		}
		waitUntil(t, 5*time.Second, "replication push span on the primary", func() bool {
			return hasSpan(primary, trace, "repl.push")
		})
		waitUntil(t, 5*time.Second, "apply span on the replica", func() bool {
			return hasSpan(replica, trace, "repl.apply")
		})
		waitUntil(t, 5*time.Second, "write-behind flush span on the primary", func() bool {
			return hasSpan(primary, trace, "rfs.flush")
		})

		// Spans must carry real durations even though timing is off: a
		// traced request forces the clock on for itself alone.
		for _, e := range primary.Srv.Metrics().Trace().EventsFor(trace) {
			if e.What == "rfs.write_block" && e.Dur <= 0 {
				t.Fatalf("traced write span has no duration: %+v", e)
			}
		}
		if primary.Srv.Metrics().TimingEnabled() {
			t.Fatal("tracing a request must not flip global timing on")
		}
		if h := primary.Srv.Metrics().Histogram("rfs.op.write_block").Stat(); h.Count != 0 {
			t.Fatalf("latency histogram filled with timing disabled: %+v", h)
		}
	})

	t.Run("pull", func(t *testing.T) {
		cfg := replConfig(false)
		cfg.Shards = 3
		cfg.Replicas = 2
		c := startCluster(t, cfg)
		node := clientNode(t, c)
		router := newRouter(t, node)
		cl := NewVolumeClient(attach(t, node, "traced-writer"), router, 1)
		// With both replicas enrolled from sequence 0 the log reaches
		// back to the first write, so the crashed replica's catch-up is
		// a pull, not a snapshot; the surviving replica keeps the log.
		waitInSync(t, c, 1)
		var victim int
		for _, cs := range c.Servers {
			if r, ok := cs.Srv.Role(1); ok && r == RoleReplica {
				victim = cs.Index
			}
		}
		c.Kill(victim)

		trace := obs.NewTraceID()
		cl.SetTrace(trace)
		writeBlocks(t, cl, 7, 0, 4)
		cl.SetTrace(0)
		writeBlocks(t, cl, 8, 0, repPushSlack+40)

		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		primary := shardWithRole(c, 1, RolePrimary)
		waitUntil(t, 5*time.Second, "replication pull span on the primary", func() bool {
			return hasSpan(primary, trace, "repl.pull")
		})
		waitUntil(t, 5*time.Second, "apply span on the restarted replica", func() bool {
			return hasSpan(c.Servers[victim], trace, "repl.apply")
		})
	})
}

// TestScrapeDuringFailover: stats scraping is a bystander. Concurrent
// OpQueryStats scrapes and in-process registry reads keep running while
// the primary is killed and the replica promotes, without blocking the
// data path, erroring on live servers, or ever returning a torn
// snapshot (histograms with impossible shapes, counters running
// backwards). The cluster fixture's leak check then proves the
// scrapers' grant buffers all went back to the pool.
func TestScrapeDuringFailover(t *testing.T) {
	cfg := replConfig(false)
	cfg.Server.SlowOp = 2 * time.Second // enables timing → histograms fill
	c := startCluster(t, cfg)
	node := clientNode(t, c)

	// Resolve the volume's route with a first acked write before the
	// scrapers start: at GOMAXPROCS 1 their spinning can starve the
	// router's first name lookup past its timeout.
	writer := attach(t, node, "failover-writer")
	router := newRouter(t, node)
	cl := NewVolumeClient(writer, router, 1)
	page := make([]byte, 512)
	if err := cl.WriteBlock(3, 0, page); err != nil {
		t.Fatalf("pre-kill write 0: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stopOnce sync.Once
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	// A failing assertion must not leave the scrapers spinning into the
	// tests that run after this one.
	t.Cleanup(halt)
	errc := make(chan error, 4)

	// One scraper per shard, each with its own proc and pinned client:
	// a dead shard's scrape may fail (it is a remote exchange like any
	// other), but a live shard's must parse and be monotonic.
	servers := make([]*Server, len(c.Servers))
	for _, cs := range c.Servers {
		cs := cs
		servers[cs.Index] = cs.Srv
		pid := cs.Srv.Pid()
		p := attach(t, node, fmt.Sprintf("scraper-%d", cs.Index))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := directClient(p, pid, 1)
			buf := make([]byte, 64*1024)
			last := make(map[string]int64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				streamed, _, err := cl.QueryStats(buf)
				if err != nil {
					continue // shard may be dead or mid-restart
				}
				snap, err := obs.ParseSnapshot(buf[:streamed])
				if err != nil {
					errc <- fmt.Errorf("shard %d: unparseable snapshot: %v", cs.Index, err)
					return
				}
				for name, h := range snap.Hists {
					if h.Count < 0 || h.Sum < 0 || (h.Count > 0 && h.Max <= 0) {
						errc <- fmt.Errorf("shard %d: torn histogram %s: %+v", cs.Index, name, h)
						return
					}
				}
				for name, v := range snap.Counters {
					if prev, ok := last[name]; ok && v < prev {
						errc <- fmt.Errorf("shard %d: counter %s went backwards: %d -> %d", cs.Index, name, prev, v)
						return
					}
					last[name] = v
				}
			}
		}()
	}

	// In-process reader of every server counter and per-volume gauge by
	// name. It keeps polling all servers — including the one that gets
	// killed mid-run, whose Close unregisters its rfs.vol<id>.* gauges
	// under the reader: a counter reads frozen, a vanished gauge reads
	// false, and neither may race the teardown.
	names := make([][]string, len(servers))
	for i, srv := range servers {
		names[i] = []string{"rfs.requests", "rfs.page_writes", "rfs.repl_applied", "rfs.promotions", "rfs.cache_watchers"}
		for _, id := range srv.Volumes() {
			for _, g := range []string{"cache_hits", "cache_misses", "dirty_blocks", "flush_runs", "flushed_blocks",
				"flush_errs", "role", "repl_seq", "repl_insync", "repl_lag"} {
				names[i] = append(names[i], fmt.Sprintf("rfs.vol%d.%s", id, g))
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, srv := range servers {
				for _, name := range names[i] {
					_, _ = srv.Metrics().Value(name)
				}
			}
		}
	}()

	// Data path under the scrapers: write, kill the primary once the
	// replica is promotion-eligible, keep writing through the promotion,
	// then read everything back. Writes during the gap fail and retry —
	// the loop counts post-kill acks like the burst failover test does.
	for blk := uint32(1); blk < 8; blk++ {
		page[0] = byte(blk)
		if err := cl.WriteBlock(3, blk, page); err != nil {
			t.Fatalf("pre-kill write %d: %v", blk, err)
		}
	}

	rv := c.Servers[1].Srv.volumes[1].rv
	waitUntil(t, 5*time.Second, "replica to enroll in-sync", func() bool { return rv.eligible.Load() })
	c.Kill(0)

	acked := 0
	deadline := time.Now().Add(10 * time.Second)
	for acked < 8 {
		if time.Now().After(deadline) {
			t.Fatal("writer never recovered after the primary was killed")
		}
		page[0] = byte(8 + acked)
		if err := cl.WriteBlock(3, uint32(8+acked), page); err == nil {
			acked++
		}
	}
	if role, ok := c.Servers[1].Srv.Role(1); !ok || role != RolePrimary {
		t.Fatalf("survivor role = %v, %v; want promoted primary", role, ok)
	}
	in := make([]byte, 512)
	for blk := uint32(8); blk < 16; blk++ {
		if _, err := cl.ReadBlock(3, blk, in); err != nil {
			t.Fatalf("post-failover read %d: %v", blk, err)
		}
		if in[0] != byte(blk) {
			t.Fatalf("post-failover read %d: got tag %d", blk, in[0])
		}
	}

	halt()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The survivor must have answered scrapes during the storm.
	survivor := shardWithRole(c, 1, RolePrimary)
	if n := metric(t, survivor.Srv.Metrics(), "rfs.stat_scrapes"); n == 0 {
		t.Fatal("no stats scrapes recorded on the surviving shard")
	}
}
