// Package obs is the observability layer: a registry of named atomic
// counters, gauges and lock-free log-bucketed latency histograms, plus
// per-node trace rings for wire-level request tracing.
//
// Design constraints, in order:
//
//   - Recording must be safe from any goroutine and must never block a
//     data path: counters and histograms are plain atomics, gauges are
//     either atomics or pull-time callbacks, and the only mutex in the
//     package (the trace ring's) is taken solely for traced or slow
//     operations, which are rare by construction.
//   - Disabled instrumentation must cost one atomic load. Latency
//     timing hides behind Registry.Start, which reads one atomic bool
//     and returns the zero time when timing is off; every downstream
//     helper treats the zero time as "don't record".
//   - Scraping must never tear: a histogram's count is derived from its
//     bucket array at snapshot time rather than kept as a separate
//     atomic, so a snapshot's count always equals the sum of its
//     buckets no matter how many Observes race with the scrape.
//
// Owners register metrics once at construction and keep the returned
// pointers; the registry's maps are only walked by scrapers
// (Snapshot/Do), never on a hot path.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names and owns a node's metrics. The zero value is not
// usable; call New. All methods are safe on a nil receiver — a nil
// registry registers nothing and records nothing — so subsystems can
// instrument unconditionally and let the caller decide whether
// observability exists at all.
type Registry struct {
	timing atomic.Bool
	slowNs atomic.Int64
	ring   *TraceRing

	mu         sync.Mutex
	node       string
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// New creates an empty registry whose trace ring holds the default
// number of events.
func New() *Registry {
	return &Registry{
		ring:       newTraceRing(defaultRingSize),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// SetNode labels the registry (and its trace events) with the owning
// node's name.
func (r *Registry) SetNode(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = name
	r.mu.Unlock()
	r.ring.setNode(name)
}

// Node returns the node label.
func (r *Registry) Node() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node
}

// Counter returns the named counter, registering it on first use.
// Registration is idempotent: every caller of the same name shares one
// counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-time gauge: f is called at snapshot time
// from the scraper's goroutine. f must not block on anything the data
// path holds while replying (it may take short leaf locks). A second
// registration under the same name replaces the first.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = f
	r.mu.Unlock()
}

// Unregister removes a metric (any kind) by name; subsequent
// registrations recreate it from zero. Used when a volume is torn down.
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.gaugeFuncs, name)
	delete(r.hists, name)
	r.mu.Unlock()
}

// Value reads one counter, gauge or pull-time gauge by exact name. It
// registers nothing: an unknown name reports false instead of minting a
// fresh zero counter, so a misspelled name fails its reader. A pull-time
// gauge shadows an atomic gauge of the same name, as in Do.
func (r *Registry) Value(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	c, g, f := r.counters[name], r.gauges[name], r.gaugeFuncs[name]
	r.mu.Unlock()
	// Read outside the lock, as Do does: f may take its own leaf lock.
	switch {
	case c != nil:
		return c.Load(), true
	case f != nil:
		return f(), true
	case g != nil:
		return g.Load(), true
	}
	return 0, false
}

// Histogram returns the named latency histogram, registering it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetTiming turns latency timing on or off. Off (the default) reduces
// every timing site to one atomic load.
func (r *Registry) SetTiming(on bool) {
	if r != nil {
		r.timing.Store(on)
	}
}

// TimingEnabled reports whether latency timing is on.
func (r *Registry) TimingEnabled() bool {
	return r != nil && r.timing.Load()
}

// SetSlowOp sets the slow-operation capture threshold and, for any
// positive d, enables timing (a threshold without timing can never
// fire). Zero disables slow-op capture.
func (r *Registry) SetSlowOp(d time.Duration) {
	if r == nil {
		return
	}
	r.slowNs.Store(int64(d))
	if d > 0 {
		r.timing.Store(true)
	}
}

// SlowOpNs returns the capture threshold in nanoseconds (0 = off).
func (r *Registry) SlowOpNs() int64 {
	if r == nil {
		return 0
	}
	return r.slowNs.Load()
}

// Start returns a start timestamp when timing is enabled and the zero
// time otherwise. Pair with Histogram.Since. The disabled path is one
// atomic load and no clock read.
func (r *Registry) Start() time.Time {
	if r == nil || !r.timing.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Trace returns the registry's trace ring (nil on a nil registry).
func (r *Registry) Trace() *TraceRing {
	if r == nil {
		return nil
	}
	return r.ring
}

// Do calls each visitor with a consistent point-in-time read of every
// metric, names sorted, counters first, then gauges (atomic and
// pull-time merged), then histograms. It is the scrape primitive under
// Snapshot; visitors must not call back into the registry.
func (r *Registry) Do(
	counter func(name string, v int64),
	gauge func(name string, v int64),
	hist func(name string, s HistStat),
) {
	if r == nil {
		return
	}
	r.mu.Lock()
	cnames := sortedKeys(r.counters)
	gnames := make([]string, 0, len(r.gauges)+len(r.gaugeFuncs))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	for name := range r.gaugeFuncs {
		if _, dup := r.gauges[name]; !dup {
			gnames = append(gnames, name)
		}
	}
	sort.Strings(gnames)
	hnames := sortedKeys(r.hists)
	cs := make([]*Counter, len(cnames))
	for i, name := range cnames {
		cs[i] = r.counters[name]
	}
	type gaugeRead struct {
		g *Gauge
		f func() int64
	}
	gs := make([]gaugeRead, len(gnames))
	for i, name := range gnames {
		gs[i] = gaugeRead{r.gauges[name], r.gaugeFuncs[name]}
	}
	hs := make([]*Histogram, len(hnames))
	for i, name := range hnames {
		hs[i] = r.hists[name]
	}
	r.mu.Unlock()

	// Reads happen outside the registry lock: a pull-time gauge may take
	// its own (leaf) lock, and a slow visitor must not block concurrent
	// metric registration.
	if counter != nil {
		for i, name := range cnames {
			counter(name, cs[i].Load())
		}
	}
	if gauge != nil {
		for i, name := range gnames {
			v := gs[i].g.Load()
			if gs[i].f != nil {
				v = gs[i].f()
			}
			gauge(name, v)
		}
	}
	if hist != nil {
		for i, name := range hnames {
			hist(name, hs[i].Stat())
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
