package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				r.Counter("reqs_total").Inc()
				r.Gauge("inflight").Add(1)
				r.Histogram("lat_seconds").Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("reqs_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("inflight").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat_seconds").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterIgnoresNegativeAndNil(t *testing.T) {
	var c *Counter
	c.Inc() // must not panic
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	c = &Counter{}
	c.Add(-5)
	if c.Value() != 0 {
		t.Errorf("negative add changed counter: %d", c.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2}, // 3µs rounds up to the le=4µs bucket
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10},         // 1024µs = 1µs<<10
		{time.Second, 20},              // ~1.05s bound at 1µs<<20
		{10 * time.Minute, numBuckets}, // past the largest finite bound
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Every finite bucket bound must actually cover its index.
	for i := 0; i < numBuckets; i++ {
		if bucketIndex(BucketBound(i)) != i {
			t.Errorf("bound %v does not map back to bucket %d", BucketBound(i), i)
		}
	}
}

func TestHistogramStatsAndQuantile(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 90*time.Millisecond + 10*time.Second
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// p50 lands in the ~1ms bucket, p99 in the ~1s bucket.
	if q := h.Quantile(0.50); q > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", q)
	}
	if q := h.Quantile(0.99); q < 500*time.Millisecond {
		t.Errorf("p99 = %v, want ~1s", q)
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("scraper_requests_total").Add(5)
	r.Counter(`canary_triggers_total{kind="url"}`).Inc()
	r.Counter(`canary_triggers_total{kind="pdf"}`).Inc()
	r.Gauge("gateway_sessions").Set(3)
	r.Histogram("scraper_fetch_seconds").Observe(3 * time.Microsecond)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE scraper_requests_total counter",
		"scraper_requests_total 5",
		"# TYPE canary_triggers_total counter",
		`canary_triggers_total{kind="pdf"} 1`,
		`canary_triggers_total{kind="url"} 1`,
		"# TYPE gateway_sessions gauge",
		"gateway_sessions 3",
		"# TYPE scraper_fetch_seconds histogram",
		`scraper_fetch_seconds_bucket{le="+Inf"} 1`,
		"scraper_fetch_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The labelled family must emit exactly one TYPE line.
	if n := strings.Count(out, "# TYPE canary_triggers_total"); n != 1 {
		t.Errorf("TYPE line for labelled family emitted %d times", n)
	}
	// Buckets are cumulative: +Inf equals the count.
	if !strings.Contains(out, `scraper_fetch_seconds_bucket{le="4e-06"} 1`) {
		t.Errorf("3µs observation missing from le=4e-06 bucket\n%s", out)
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge("b").Set(2)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"a_total": 1`, `"b": 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON snapshot missing %q\n%s", want, out)
		}
	}
}

func TestSleepContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := SleepContext(ctx, time.Hour); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancelled sleep did not return promptly")
	}
	if err := SleepContext(context.Background(), time.Millisecond); err != nil {
		t.Errorf("uncancelled sleep err = %v", err)
	}
}

func TestOrDefault(t *testing.T) {
	if Or(nil) != Default() {
		t.Error("Or(nil) is not the default registry")
	}
	r := NewRegistry()
	if Or(r) != r {
		t.Error("Or(r) did not pass through")
	}
}
