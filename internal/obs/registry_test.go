package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("bdi_test_things_total", "Things.")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic

	var sb strings.Builder
	r.WritePrometheus(&sb)
	NewTextWriter(&sb).Gauge("bdi_test_level_entries", "Level.", nil, 7)
	out := sb.String()
	for _, want := range []string{
		"# HELP bdi_test_things_total Things.",
		"# TYPE bdi_test_things_total counter",
		"bdi_test_things_total 5",
		"# TYPE bdi_test_level_entries gauge",
		"bdi_test_level_entries 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeries(t *testing.T) {
	var sb strings.Builder
	tw := NewTextWriter(&sb)
	tw.Counter("bdi_test_admitted_total", "Admissions.", Labels{"pool": "read"}, 2)
	tw.Counter("bdi_test_admitted_total", "Admissions.", Labels{"pool": "write"}, 3)
	out := sb.String()
	if !strings.Contains(out, `bdi_test_admitted_total{pool="read"} 2`) ||
		!strings.Contains(out, `bdi_test_admitted_total{pool="write"} 3`) {
		t.Fatalf("labeled series missing:\n%s", out)
	}
	if strings.Count(out, "# TYPE bdi_test_admitted_total") != 1 {
		t.Fatalf("family header must appear once:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("bdi_test_latency_seconds", "Latency.")
	h.Observe(500 * time.Microsecond) // le=0.0005
	h.Observe(5 * time.Millisecond)   // le=0.005
	h.Observe(20 * time.Second)       // +Inf

	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`bdi_test_latency_seconds_bucket{le="0.00025"} 0`,
		`bdi_test_latency_seconds_bucket{le="0.0005"} 1`,
		`bdi_test_latency_seconds_bucket{le="0.005"} 2`,
		`bdi_test_latency_seconds_bucket{le="10"} 2`,
		`bdi_test_latency_seconds_bucket{le="+Inf"} 3`,
		`bdi_test_latency_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("bdi_test_dup_total", "Dup.")
	assertPanics(t, "same name", func() { r.NewCounter("bdi_test_dup_total", "Dup.") })
	assertPanics(t, "kind change", func() { r.NewHistogram("bdi_test_dup_total", "Dup.") })
	assertPanics(t, "help change", func() { r.NewCounter("bdi_test_dup_total", "Other.") })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestLabelEscaping(t *testing.T) {
	var sb strings.Builder
	NewTextWriter(&sb).Gauge("bdi_test_escape_entries", "Escape.", Labels{"q": "a\"b\\c\nd"}, 1)
	if !strings.Contains(sb.String(), `q="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

// TestRegistryConsistentUnderHammer bumps counters and histograms from many
// goroutines while a scraper renders the registry, then asserts the final
// exposition reflects every recorded observation. Run under -race in CI.
func TestRegistryConsistentUnderHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("bdi_test_hammer_total", "Hammer.")
	h := r.NewHistogram("bdi_test_hammer_seconds", "Hammer.")

	const workers = 8
	const perWorker = 2000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper racing the writers
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				r.WritePrometheus(&sb)
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(time.Duration(i%3) * time.Millisecond)
			}
		}()
	}
	writers.Wait()
	close(stop)
	scraper.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "bdi_test_hammer_total 16000") {
		t.Fatalf("final exposition inconsistent:\n%s", sb.String())
	}
}
