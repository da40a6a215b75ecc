package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// part is one sub-window's results. A window is cut into parts of
// about a second, and the end-to-end metrics are medians over the
// parts: a stall of the host (a descheduled virtual CPU, a neighbour's
// burst) then moves one part, not the whole result.
type part struct {
	ops, failed   int64
	reads, writes []int64 // sorted latencies, ns
	busyNs        int64   // sum of the part's op latencies
	cpu           time.Duration
	span          time.Duration
}

// window is what one timed stretch of closed-loop traffic produced.
type window struct {
	elapsed       time.Duration
	ops, failed   int64
	reads, writes int   // completed operations of each kind
	busyNs        int64 // sum of every op's latency (Little's Law)
	sharedWrites  int64
	parts         []part
}

// clientPart is one client's share of one part.
type clientPart struct {
	reads, writes []int64
	busyNs        int64
	failed        int64
}

// runWindow drives every client in a closed loop for d and returns the
// merged results. An operation that starts before the deadline counts,
// in the part where it completes; the window ends when the last one
// completes. With a tracer, each operation also records a span.
func runWindow(cs []*benchClient, d time.Duration, tr *tracer) window {
	nparts := int(d / time.Second)
	if nparts < 1 {
		nparts = 1
	}
	partLen := d / time.Duration(nparts)
	var wg sync.WaitGroup
	ends := make([]time.Time, len(cs))
	shares := make([][]clientPart, len(cs))
	start := make(chan struct{})
	var t0 time.Time
	for i, c := range cs {
		// Room for each part's samples up front, from the warm-up rate,
		// so the loop does not pause to grow them.
		hint := int(1.5*c.warmRate*partLen.Seconds()) + 256
		shares[i] = make([]clientPart, nparts)
		for k := range shares[i] {
			shares[i][k].reads = make([]int64, 0, hint)
			shares[i][k].writes = make([]int64, 0, hint/2)
		}
		c.sharedWrites = 0
		wg.Add(1)
		go func(i int, c *benchClient) {
			defer wg.Done()
			<-start
			deadline := t0.Add(d)
			mine := shares[i]
			var n uint64
			for time.Now().Before(deadline) {
				write, s, e, err := c.op(c)
				lat := int64(e.Sub(s))
				n++
				ends[i] = e
				if tr != nil {
					kind := spanRead
					if write {
						kind = spanWrite
					}
					tr.record(kind, uint8(c.idx), uint64(c.idx)<<40|n, s, e)
				}
				k := int(e.Sub(t0) / partLen)
				if k >= nparts {
					k = nparts - 1
				}
				p := &mine[k]
				p.busyNs += lat
				switch {
				case err != nil:
					p.failed++
				case write:
					p.writes = append(p.writes, lat)
				default:
					p.reads = append(p.reads, lat)
				}
			}
		}(i, c)
	}
	// The CPU clock is read at every part boundary.
	cpuMarks := make([]time.Duration, nparts+1)
	t0 = time.Now()
	cpuMarks[0] = cpuTime()
	close(start)
	for k := 1; k < nparts; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k) * partLen)))
		cpuMarks[k] = cpuTime()
	}
	wg.Wait()
	cpuMarks[nparts] = cpuTime()

	w := window{parts: make([]part, nparts)}
	for i, c := range cs {
		if e := ends[i].Sub(t0); e > w.elapsed {
			w.elapsed = e
		}
		w.sharedWrites += c.sharedWrites
	}
	for k := range w.parts {
		p := &w.parts[k]
		for i := range cs {
			s := shares[i][k]
			p.reads = append(p.reads, s.reads...)
			p.writes = append(p.writes, s.writes...)
			p.busyNs += s.busyNs
			p.failed += s.failed
		}
		p.ops = int64(len(p.reads)+len(p.writes)) + p.failed
		p.cpu = cpuMarks[k+1] - cpuMarks[k]
		p.span = partLen
		if k == nparts-1 {
			p.span = w.elapsed - time.Duration(k)*partLen
		}
		w.reads += len(p.reads)
		w.writes += len(p.writes)
		w.ops += p.ops
		w.failed += p.failed
		w.busyNs += p.busyNs
		sortNs(p.reads)
		sortNs(p.writes)
	}
	return w
}

func sortNs(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// merged pools windows run one after another.
func merged(ws []window) window {
	var m window
	for _, w := range ws {
		m.elapsed += w.elapsed
		m.ops += w.ops
		m.failed += w.failed
		m.reads += w.reads
		m.writes += w.writes
		m.busyNs += w.busyNs
		m.sharedWrites += w.sharedWrites
		m.parts = append(m.parts, w.parts...)
	}
	return m
}

// partOpsPerSec is the median over the parts of completed operations
// per second.
func (w window) partOpsPerSec() float64 {
	return w.partMedian(func(p part) float64 { return float64(p.ops) / p.span.Seconds() })
}

// littlesLawErr is |X·R − N| / N: throughput times mean latency must
// equal the closed-loop population when every client is always inside
// an operation.
func (w window) littlesLawErr(n int) float64 {
	inSystem := float64(w.busyNs) / float64(w.elapsed.Nanoseconds())
	return abs(inSystem-float64(n)) / float64(n)
}

// partMedian is the median over the window's parts of f.
func (w window) partMedian(f func(p part) float64) float64 {
	xs := make([]float64, len(w.parts))
	for i, p := range w.parts {
		xs[i] = f(p)
	}
	return median(xs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// quantileUs is the q-quantile (0..1) of sorted ns samples, in µs, by
// nearest rank; 0 with no samples.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
