package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x.count") != c {
		t.Fatalf("counter registration not idempotent")
	}
	g := r.Gauge("x.gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.GaugeFunc("x.pull", func() int64 { return 42 })

	got := map[string]int64{}
	r.Do(
		func(name string, v int64) { got["c:"+name] = v },
		func(name string, v int64) { got["g:"+name] = v },
		nil,
	)
	want := map[string]int64{"c:x.count": 5, "g:x.gauge": 5, "g:x.pull": 42}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Do: %s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

func TestValueReadsByNameWithoutRegistering(t *testing.T) {
	r := New()
	r.Counter("x.count").Add(3)
	r.Gauge("x.gauge").Set(-4)
	r.GaugeFunc("x.pull", func() int64 { return 42 })
	names := func() []string {
		var out []string
		r.Do(
			func(name string, _ int64) { out = append(out, name) },
			func(name string, _ int64) { out = append(out, name) },
			nil,
		)
		return out
	}
	before := fmt.Sprint(names())

	for name, want := range map[string]int64{"x.count": 3, "x.gauge": -4, "x.pull": 42} {
		if got, ok := r.Value(name); !ok || got != want {
			t.Fatalf("Value(%q) = %d, %v; want %d, true", name, got, ok, want)
		}
	}
	if got, ok := r.Value("x.cuont"); ok || got != 0 {
		t.Fatalf("Value of an unregistered name = %d, %v; want 0, false", got, ok)
	}
	if after := fmt.Sprint(names()); after != before {
		t.Fatalf("a Value miss registered a name: %s, was %s", after, before)
	}
	r.Unregister("x.pull")
	if _, ok := r.Value("x.pull"); ok {
		t.Fatal("Value found a name after Unregister")
	}
	var nilReg *Registry
	if _, ok := nilReg.Value("x.count"); ok {
		t.Fatal("nil registry reported a value")
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	r.GaugeFunc("d", func() int64 { return 1 })
	r.SetTiming(true)
	if r.TimingEnabled() {
		t.Fatal("nil registry reports timing enabled")
	}
	if !r.Start().IsZero() {
		t.Fatal("nil registry Start not zero")
	}
	r.Trace().Record(1, "x", 0, 0)
	r.Do(nil, nil, nil)
	if _, err := ParseSnapshot(r.Serialize()); err != nil {
		t.Fatalf("nil registry snapshot does not parse: %v", err)
	}
}

func TestBucketMonotone(t *testing.T) {
	// Every value must land in a bucket whose bound is >= the value and
	// buckets must be monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 2, 7, 8, 9, 15, 16, 31, 32, 100, 1000, 4096,
		65535, 1 << 20, 1 << 30, 1 << 40, 1 << 50, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous bucket %d", v, b, prev)
		}
		prev = b
		if b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if ub := bucketMax(b); ub < v {
			t.Fatalf("bucketMax(%d) = %d < value %d", b, ub, v)
		}
		if b > 0 && bucketMax(b-1) >= v {
			t.Fatalf("value %d should be above bucket %d's bound %d", v, b-1, bucketMax(b-1))
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations: 1..100 microseconds.
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	s := h.Stat()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max != 100000 {
		t.Fatalf("max = %d, want 100000", s.Max)
	}
	wantSum := int64(0)
	for i := 1; i <= 100; i++ {
		wantSum += int64(i) * 1000
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// Log bucketing bounds relative error below 25%.
	check := func(name string, got, exact int64) {
		if got < exact || got > exact+exact/4+1 {
			t.Fatalf("%s = %d, want within [%d, %d]", name, got, exact, exact+exact/4+1)
		}
	}
	check("p50", s.P50, 50000)
	check("p95", s.P95, 95000)
	check("p99", s.P99, 99000)
}

func TestHistogramConcurrentScrape(t *testing.T) {
	// Scrapes racing observers must never see count != Σbuckets; with a
	// derived count that is structural, but keep the race detector on it.
	h := &Histogram{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v % 1_000_000)
				v += 7919
			}
		}(int64(w + 1))
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	var last int64
	for time.Now().Before(deadline) {
		s := h.Stat()
		if s.Count < last {
			t.Errorf("count went backwards: %d -> %d", last, s.Count)
			break
		}
		last = s.Count
	}
	close(stop)
	wg.Wait()
}

func TestTraceRing(t *testing.T) {
	r := New()
	r.SetNode("n1")
	ring := r.Trace()
	for i := 0; i < 5; i++ {
		ring.Record(7, fmt.Sprintf("step%d", i), uint64(i), time.Duration(i))
	}
	ring.Record(9, "other", 0, 0)
	evs := ring.EventsFor(7)
	if len(evs) != 5 {
		t.Fatalf("EventsFor(7) = %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.What != fmt.Sprintf("step%d", i) {
			t.Fatalf("event %d = %q, out of order", i, e.What)
		}
		if e.Node != "n1" {
			t.Fatalf("event node = %q, want n1", e.Node)
		}
	}
	// Wraparound keeps the newest events.
	small := newTraceRing(4)
	for i := 0; i < 10; i++ {
		small.Record(1, fmt.Sprintf("e%d", i), 0, 0)
	}
	evs = small.Events()
	if len(evs) != 4 || evs[0].What != "e6" || evs[3].What != "e9" {
		t.Fatalf("ring wraparound wrong: %+v", evs)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	r := New()
	r.SetNode("srv 1") // space must be sanitized
	r.Counter("ipc.sends").Add(10)
	r.Gauge("rfs.dirty").Set(3)
	r.GaugeFunc("rfs.pull", func() int64 { return 8 })
	h := r.Histogram("rfs.read_ns")
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i))
	}
	r.Trace().Record(0xabc, "rfs.page_read", 17, 250*time.Microsecond)

	snap, err := ParseSnapshot(r.Serialize())
	if err != nil {
		t.Fatalf("ParseSnapshot: %v", err)
	}
	if snap.Node != "srv_1" {
		t.Fatalf("node = %q", snap.Node)
	}
	if snap.Counters["ipc.sends"] != 10 {
		t.Fatalf("counter = %d", snap.Counters["ipc.sends"])
	}
	if snap.Gauges["rfs.dirty"] != 3 || snap.Gauges["rfs.pull"] != 8 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
	hs, ok := snap.Hists["rfs.read_ns"]
	if !ok || hs.Count != 1000 {
		t.Fatalf("hist = %+v ok=%v", hs, ok)
	}
	if len(snap.Events) != 1 {
		t.Fatalf("events = %+v", snap.Events)
	}
	e := snap.Events[0]
	if e.Trace != 0xabc || e.What != "rfs.page_read" || e.Arg != 17 ||
		e.Dur != 250*time.Microsecond || e.Node != "srv_1" {
		t.Fatalf("event round-trip mismatch: %+v", e)
	}

	if _, err := ParseSnapshot([]byte("garbage\n")); err == nil {
		t.Fatal("ParseSnapshot accepted garbage")
	}
}

func TestSlowOpEnablesTiming(t *testing.T) {
	r := New()
	if r.TimingEnabled() {
		t.Fatal("timing on by default")
	}
	if !r.Start().IsZero() {
		t.Fatal("Start must return zero time with timing off")
	}
	r.SetSlowOp(time.Millisecond)
	if !r.TimingEnabled() {
		t.Fatal("SetSlowOp must enable timing")
	}
	if r.Start().IsZero() {
		t.Fatal("Start must return a real time with timing on")
	}
	if r.SlowOpNs() != int64(time.Millisecond) {
		t.Fatalf("SlowOpNs = %d", r.SlowOpNs())
	}
	h := r.Histogram("x")
	if d := h.Since(r.Start()); d <= 0 {
		t.Fatalf("Since = %d, want > 0", d)
	}
	if d := h.Since(time.Time{}); d != 0 {
		t.Fatalf("Since(zero) = %d, want 0", d)
	}
}

func TestObserveAllocationFree(t *testing.T) {
	h := &Histogram{}
	v := int64(12345)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 997
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call", allocs)
	}
	r := New()
	r.SetTiming(false)
	hist := r.Histogram("y")
	if allocs := testing.AllocsPerRun(1000, func() {
		hist.Since(r.Start())
	}); allocs != 0 {
		t.Fatalf("disabled Start/Since allocates %v times per call", allocs)
	}
}

func TestNewTraceID(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if id == 0 || id > TraceMask {
			t.Fatalf("NewTraceID = %#x out of range", id)
		}
	}
}
