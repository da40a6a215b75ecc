package main

import (
	"encoding/json"
	"regexp"
	"runtime"
	"sync"
	"time"

	"vkernel/internal/obs"
)

// paperPageOverExchange is the paper's page-read / message-exchange
// ratio: a 5.56 ms page read (Table 6-1) over a 2.54 ms remote exchange
// (Table 5-2). It is printed beside the measured rfs.page_over_exchange.
const paperPageOverExchange = 5.56 / 2.54

// volGauge matches a per-volume gauge; snapshots also sum it over every
// hosted volume copy under rfs.vol.<name>.
var volGauge = regexp.MustCompile(`^rfs\.vol\d+\.(.+)$`)

// snap is a point-in-time read of every counter the per-layer metrics
// are deltas of.
type snap struct {
	counters map[string]int64
	hists    map[string][]obs.HistStat // per shard
	stores   storeCounts
	primary  storeCounts
	ccHits   int64
	ccMisses int64
	renewals int64
	purges   int64
	mem      runtime.MemStats
}

func takeSnap(e *env) snap {
	s := snap{counters: map[string]int64{}, hists: map[string][]obs.HistStat{}}
	add := func(name string, v int64) {
		s.counters[name] += v
		if m := volGauge.FindStringSubmatch(name); m != nil {
			s.counters["rfs.vol."+m[1]] += v
		}
	}
	for _, reg := range e.registries() {
		reg.Do(add, add, nil)
	}
	for _, reg := range e.shardRegistries() {
		reg.Do(nil, nil, func(name string, h obs.HistStat) {
			s.hists[name] = append(s.hists[name], h)
		})
	}
	s.stores = e.storeTotals(allStores)
	s.primary = e.storeTotals(primaryStores)
	for _, cc := range e.caching {
		st := cc.Stats()
		s.ccHits += st.Hits
		s.ccMisses += st.Misses
		s.renewals += st.Renewals
		s.purges += st.Purges
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// sampler polls gauges that only make sense as peaks: the staged
// write-behind blocks over every volume copy and the worst replica lag.
type sampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	dirtyMax int64
	lagMax   int64
}

func startSampler(e *env, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{})}
	regs := e.shardRegistries()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			var dirty int64
			for _, reg := range regs {
				reg.Do(nil, func(name string, v int64) {
					m := volGauge.FindStringSubmatch(name)
					switch {
					case m == nil:
					case m[1] == "dirty_blocks":
						dirty += v
					case m[1] == "repl_lag" && v > s.lagMax:
						s.lagMax = v
					}
				}, nil)
			}
			if dirty > s.dirtyMax {
				s.dirtyMax = dirty
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// tracedPairs is how many untraced/traced segment pairs a traced run
// alternates through, so drift over the window cannot pose as tracing
// overhead.
const tracedPairs = 3

// measureTraced is the --trace 1 run: the probes, then the window in
// alternating untraced and traced segments. While traced, the shards'
// registries time rfs.op.* and every client operation and store call is
// recorded as a span. Counts are deltas over the whole window; timings
// come from the traced segments, tails and throughput from the
// untraced ones. It fills the per-layer metrics and returns every
// segment.
func measureTraced(e *env, d time.Duration, m map[string]metric, detail map[string]any, work string, prov map[string]any) ([]window, error) {
	tr := newTracer(1 << 20)
	p, err := runProbes(e, tr)
	if err != nil {
		return nil, err
	}
	regs := e.shardRegistries()
	pageReads := func() (n int64) {
		for _, reg := range regs {
			n += gauge(reg, "rfs.page_reads")
		}
		return n
	}
	seg := d / (2 * tracedPairs)
	var plainWs, tracedWs []window
	var tracedPageReads int64
	before := takeSnap(e)
	smp := startSampler(e, 10*time.Millisecond)
	for i := 0; i < tracedPairs; i++ {
		plainWs = append(plainWs, runWindow(e.clients, seg, nil))
		for _, reg := range regs {
			reg.SetTiming(true)
		}
		e.setTracer(tr)
		r0 := pageReads()
		tracedWs = append(tracedWs, runWindow(e.clients, seg, tr))
		tracedPageReads += pageReads() - r0
		e.setTracer(nil)
		for _, reg := range regs {
			reg.SetTiming(false)
		}
	}
	smp.finish()
	after := takeSnap(e)
	plain, traced := merged(plainWs), merged(tracedWs)
	win := merged([]window{plain, traced})

	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for name, v := range unsteady(plain) {
		m[name] = v
	}

	ops := float64(win.ops)
	delta := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// §5 decomposition: exchange and page read, remote and local.
	set("ipc.exchange_remote_us", p.exchangeRemote, "us")
	set("ipc.exchange_local_us", p.exchangeLocal, "us")
	set("rfs.page_read_remote_us", p.pageRemote, "us")
	set("rfs.page_read_local_us", p.pageLocal, "us")
	set("net.penalty_us", p.pageRemote-p.pageLocal, "us")
	set("rfs.page_over_exchange", ratio(p.pageRemote, p.exchangeRemote), "ratio")
	set("ipc.moveto_64k_remote_us", p.move64kRemote, "us")
	set("rfs.write_large_64k_remote_us", p.writeLargeRemote, "us")

	// Kernel and transport work per operation.
	set("net.datagrams_per_op", ratio(delta("net.sends")+delta("net.recvs"), ops), "1/op")
	set("ipc.move_ops_per_op", ratio(delta("ipc.move_ops"), ops), "1/op")
	set("ipc.retransmits_per_kop", ratio(1000*delta("ipc.retransmits"), ops), "1/kop")
	set("ipc.reply_pendings_per_kop", ratio(1000*delta("ipc.reply_pendings_sent"), ops), "1/kop")
	set("ipc.overload_sheds", delta("ipc.overload_sheds"), "count")

	// Server: per-op service time (worker path only; write_large from
	// the probe), misses, flushing.
	for _, op := range []string{"read_block", "write_block", "write_large"} {
		set("rfs.op."+op+".p50_us", histP50us(after.hists["rfs.op."+op]), "us")
	}
	timedReads := float64(histCount(after.hists["rfs.op.read_block"]))
	set("rfs.op.read_block.timed_frac", ratio(timedReads, float64(tracedPageReads)), "ratio")
	set("rfs.server_miss_ratio", serverMissRatio(before, after), "ratio")
	set("rfs.flush_blocks_per_run", ratio(delta("rfs.vol.flushed_blocks"), delta("rfs.vol.flush_runs")), "blocks")
	set("rfs.dirty_max", float64(smp.dirtyMax), "blocks")

	// Store, through the benchmark's wrapper.
	storeReads := tr.durations(spanStoreRead)
	storeWrites := tr.durations(spanStoreWrite)
	set("store.reads_per_op", ratio(float64(after.stores.reads-before.stores.reads), ops), "1/op")
	set("store.writes_per_op", ratio(float64(after.stores.writes-before.stores.writes), ops), "1/op")
	set("store.write_amp", ratio(float64(after.stores.writeBytes-before.stores.writeBytes), delta("rfs.bytes_written")), "ratio")
	set("store.read_p50_us", quantileUs(storeReads, 0.5), "us")
	set("store.write_p50_us", quantileUs(storeWrites, 0.5), "us")
	set("store.busy_frac", ratio(float64(after.stores.busyNs-before.stores.busyNs), float64(traced.elapsed.Nanoseconds())), "ratio")

	// Replication and invalidation.
	writes := float64(win.writes)
	set("repl.applied_per_write", ratio(delta("rfs.repl_applied"), writes), "ratio")
	set("repl.lag_max", float64(smp.lagMax), "records")
	set("repl.resyncs", delta("rfs.repl_resyncs"), "count")
	set("inval.callbacks_per_shared_write", ratio(delta("rfs.cache_callbacks"), float64(win.sharedWrites)), "ratio")
	set("inval.callback_timeouts", delta("rfs.cache_callback_timeouts"), "count")

	// Client cache.
	hits, misses := float64(after.ccHits-before.ccHits), float64(after.ccMisses-before.ccMisses)
	set("ccache.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("ccache.renewals_per_kop", ratio(1000*float64(after.renewals-before.renewals), ops), "1/kop")
	set("ccache.purges", float64(after.purges-before.purges), "count")

	// Go runtime.
	set("go.allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops), "1/op")
	set("go.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops), "B/op")
	set("go.gc_per_kop", ratio(1000*float64(after.mem.NumGC-before.mem.NumGC), ops), "1/kop")

	// Harness.
	set("bench.trace_overhead_frac", 1-traced.partOpsPerSec()/plain.partOpsPerSec(), "ratio")
	set("check.littles_law_err", plain.littlesLawErr(clients), "ratio")
	set("fail_frac", ratio(float64(win.failed), ops), "ratio")

	detail["paper"] = map[string]float64{"rfs.page_over_exchange": paperPageOverExchange}
	detail["traced_ops_per_s"] = traced.partOpsPerSec()
	detail["spans_dropped"] = tr.dropped.Load()
	provJSON, _ := json.Marshal(prov)
	if err := tr.write(traceFile(work, prov), string(provJSON)); err != nil {
		return nil, err
	}
	return append(plainWs, tracedWs...), nil
}

// serverMissRatio is the share of the 512 B blocks the servers served
// (rfs.bytes_read) that had to be read from a primary's store. It counts
// the wrapper's ReadAt calls, not the rfs.vol<id>.cache_misses gauge,
// which counts a cold fast-path read twice.
func serverMissRatio(before, after snap) float64 {
	served := float64(after.counters["rfs.bytes_read"]-before.counters["rfs.bytes_read"]) / pageSize
	if served == 0 {
		return 0
	}
	return float64(after.primary.reads-before.primary.reads) / served
}

// histP50us combines the shards' medians of one histogram, weighted by
// their sample counts (the registries expose summaries, not buckets).
func histP50us(hs []obs.HistStat) float64 {
	var n, sum float64
	for _, h := range hs {
		n += float64(h.Count)
		sum += float64(h.Count) * float64(h.P50)
	}
	if n == 0 {
		return 0
	}
	return sum / n / 1e3
}

func histCount(hs []obs.HistStat) int64 {
	var n int64
	for _, h := range hs {
		n += h.Count
	}
	return n
}
