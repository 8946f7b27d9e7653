package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bdi/internal/core"
	"bdi/internal/mdm"
	"bdi/internal/replication"
	"bdi/internal/wal"
	"bdi/internal/wrapper"
)

// clients is the size of the closed loop: analysts and stewards wait for a
// reply before they send the next request, and the host has two cores.
const clients = 2

// syncPolicy is the WAL fsync policy of the durable workload, the server's
// default.
const syncPolicy = wal.SyncBatch

// system is one set-up system under test: the ontology, the wrappers and
// the server on a loopback listener, composed the way cmd/mdm-server
// composes them with no governor and no budgets.
type system struct {
	ontology *core.Ontology
	registry *wrapper.Registry
	manager  *wal.Manager // nil unless the workload is durable
	dataDir  string
	url      string
	server   *http.Server
	client   *http.Client
	served   chan struct{}
}

// newSystem starts a server over the ontology. A durable system journals
// through manager, which must own the ontology.
func newSystem(o *core.Ontology, reg *wrapper.Registry, manager *wal.Manager, dataDir string) (*system, error) {
	srv := mdm.NewServer(o, reg)
	if manager != nil {
		srv.EnableDurability(manager)
		srv.EnableReplication(replication.NewPrimary(manager))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &system{
		ontology: o,
		registry: reg,
		manager:  manager,
		dataDir:  dataDir,
		url:      "http://" + ln.Addr().String(),
		server:   &http.Server{Handler: srv.Handler()},
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		served:   make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.server.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stopServer closes the listener and every connection and waits for the
// serving goroutine; the durability manager, if any, stays open.
func (s *system) stopServer() {
	s.client.CloseIdleConnections()
	_ = s.server.Close()
	<-s.served
}

// discard tears down a system that will not be measured.
func (s *system) discard() {
	s.stopServer()
	if s.manager != nil {
		_ = s.manager.Abort()
	}
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}

// poster is one keep-alive client of the closed loop. It is not safe for
// concurrent use: the response buffer is reused between requests.
type poster struct {
	sys *system
	buf bytes.Buffer
}

// post sends one request and reads the whole reply; the latency covers
// both. The returned body is valid until the next call.
func (p *poster) post(path string, body []byte) (status int, reply []byte, latency time.Duration, err error) {
	start := time.Now()
	resp, err := p.sys.client.Post(p.sys.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	p.buf.Reset()
	_, err = p.buf.ReadFrom(resp.Body)
	latency = time.Since(start)
	_ = resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, latency, err
	}
	return resp.StatusCode, p.buf.Bytes(), latency, nil
}

// getJSON decodes a GET endpoint of the system into v.
func (s *system) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads GET /metrics into a map from series (name plus label set, as
// printed) to value.
func (s *system) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// counters is everything read from outside the program on either side of
// the timed window: the /metrics scrape, the cache and durability stats
// endpoints and the Go runtime.
type counters struct {
	metrics map[string]float64
	cache   mdm.CacheStatsResponse
	wal     wal.Stats
	mem     runtime.MemStats
	gcCPU   float64
	allCPU  float64
}

func (s *system) readCounters() (counters, error) {
	var c counters
	var err error
	if c.metrics, err = s.scrape(); err != nil {
		return c, fmt.Errorf("scraping /metrics: %w", err)
	}
	if err := s.getJSON("/api/queries/cache", &c.cache); err != nil {
		return c, err
	}
	if s.manager != nil {
		if err := s.getJSON("/api/durability", &c.wal); err != nil {
			return c, err
		}
	}
	runtime.ReadMemStats(&c.mem)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sample)
	c.gcCPU, c.allCPU = sample[0].Value.Float64(), sample[1].Value.Float64()
	return c, nil
}

// delta returns after-before of one /metrics series.
func delta(before, after counters, series string) float64 {
	return after.metrics[series] - before.metrics[series]
}

// memSampler reads the runtime's memory classes every 100 ms through
// runtime/metrics, which does not stop the world.
type memSampler struct {
	stop chan struct{}
	done chan struct{}

	samples  int
	retained float64 // sum over the samples of the bytes held from the OS
	heapPeak uint64  // highest live heap seen
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.samples++
			s.retained += float64(sample[0].Value.Uint64() - sample[1].Value.Uint64())
			s.heapPeak = max(s.heapPeak, sample[2].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler. retainedMB is the mean over the samples of the
// memory the runtime held from the operating system (everything mapped
// minus what was released back), heapPeakMB the highest live heap.
func (s *memSampler) finish() (retainedMB, heapPeakMB float64) {
	close(s.stop)
	<-s.done
	return s.retained / float64(s.samples) / (1 << 20), float64(s.heapPeak) / (1 << 20)
}

// tally counts operations and keeps the first few failures for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
}

// check counts one operation: failed when err is not nil.
func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.messages) < 10 {
		t.messages = append(t.messages, err.Error())
	}
}

// closedLoop runs n clients until next reports the end. next hands out the
// operations in one global order, so what the server sees does not depend
// on how fast each client is; do performs one operation with the client's
// own poster and returns its latency and whether it counts.
func closedLoop(sys *system, n int, next func() (int, bool), do func(p *poster, i int) (time.Duration, bool)) (latencies []time.Duration, elapsed time.Duration) {
	var wg sync.WaitGroup
	per := make([][]time.Duration, n)
	start := time.Now()
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &poster{sys: sys}
			for {
				i, more := next()
				if !more {
					return
				}
				if d, counted := do(p, i); counted {
					per[c] = append(per[c], d)
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, l := range per {
		latencies = append(latencies, l...)
	}
	return latencies, elapsed
}

// cursor hands out 0, 1, 2, ... until the deadline or, if limit > 0, until
// limit operations were handed out.
func cursor(deadline time.Time, limit int) func() (int, bool) {
	var n atomic.Int64
	return func() (int, bool) {
		i := int(n.Add(1) - 1)
		if limit > 0 {
			return i, i < limit
		}
		return i, time.Now().Before(deadline)
	}
}

// percentile returns the p-quantile (nearest rank) of the durations in
// milliseconds; 0 when there are none.
func percentile(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	rank := int(math.Ceil(float64(len(s))*p)) - 1
	return ms(s[min(max(rank, 0), len(s)-1)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a set of measurements; 0 when there are none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// benchDir is where the benchmark keeps what it writes: inside the
// checkout, beside the build output.
const benchDir = ".bench_build"

// tempDataDir makes a fresh WAL directory under the checkout.
func tempDataDir() (string, error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(benchDir, "data-")
}
