package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace("request")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom did not round-trip")
	}
	if TraceID(ctx) != tr.ID() {
		t.Fatal("TraceID mismatch")
	}

	ctx1, rewrite := StartSpan(ctx, "rewrite")
	_, assemble := StartSpan(ctx1, "rewrite.assemble")
	assemble.SetAttr("concept", "C0")
	assemble.End()
	rewrite.End()
	ctx2, eval := StartSpan(ctx, "eval")
	_, walk := StartSpan(ctx2, "walk")
	walk.SetAttrInt("rows", 42)
	walk.End()
	eval.End()
	total := tr.Finish()
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}

	snap := tr.Snapshot()
	if snap.Root != "request" || len(snap.Spans) != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	byName := map[string]Span{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	if byName["rewrite"].Parent != 0 || byName["eval"].Parent != 0 {
		t.Fatalf("stage spans must parent on root: %+v", snap.Spans)
	}
	if snap.Spans[byName["rewrite.assemble"].Parent].Name != "rewrite" {
		t.Fatalf("assemble span must nest under rewrite: %+v", snap.Spans)
	}
	if snap.Spans[byName["walk"].Parent].Name != "eval" {
		t.Fatalf("walk span must nest under eval: %+v", snap.Spans)
	}
	if got := byName["walk"].Attrs; len(got) != 1 || got[0].Key != "rows" || got[0].Value != "42" {
		t.Fatalf("walk attrs = %+v", got)
	}
	// Durations of siblings sum to no more than their parent's duration.
	if byName["rewrite"].Duration+byName["eval"].Duration > snap.Spans[0].Duration {
		t.Fatalf("children exceed parent: %+v", snap.Spans)
	}
	if byName["rewrite.assemble"].Duration > byName["rewrite"].Duration {
		t.Fatalf("assemble exceeds rewrite: %+v", snap.Spans)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "rewrite")
	if ctx2 != ctx {
		t.Fatal("ctx must pass through untouched")
	}
	if s != nil {
		t.Fatal("span handle must be nil without a trace")
	}
	// All handle methods are nil-safe.
	s.End()
	s.SetAttr("k", "v")
	s.SetAttrInt("k", 1)
	if TraceFrom(ctx) != nil || TraceID(ctx) != "" {
		t.Fatal("no trace expected")
	}
}

func TestTracerRetainsSlowest(t *testing.T) {
	tr := NewTracer(2)
	mk := func(d time.Duration) *Trace {
		t := NewTrace("req")
		t.mu.Lock()
		t.spans[0].Duration = d
		t.total = d
		t.mu.Unlock()
		return t
	}
	fast, mid, slow := mk(time.Millisecond), mk(10*time.Millisecond), mk(time.Second)
	tr.Offer(fast)
	tr.Offer(mid)
	tr.Offer(slow) // evicts fast
	if _, ok := tr.Get(fast.ID()); ok {
		t.Fatal("fast trace should have been evicted")
	}
	if _, ok := tr.Get(slow.ID()); !ok {
		t.Fatal("slow trace must be retained")
	}
	tr.Offer(mk(time.Microsecond)) // slower than nothing: dropped
	got := tr.Slowest()
	if len(got) != 2 || got[0].ID != slow.ID() || got[1].ID != mid.ID() {
		t.Fatalf("slowest = %+v", got)
	}
}

// TestTraceConcurrentSpans has parallel goroutines (the walk-execution
// shape) record spans into one trace while another goroutine snapshots it.
// Run under -race in CI.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("request")
	ctx := WithTrace(context.Background(), tr)
	stop := make(chan struct{})
	var snap sync.WaitGroup
	snap.Add(1)
	go func() {
		defer snap.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	const workers = 8
	const spansPer = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				_, s := StartSpan(ctx, "walk")
				s.SetAttrInt("i", int64(i))
				s.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snap.Wait()
	tr.Finish()
	got := tr.Snapshot()
	if len(got.Spans) != 1+workers*spansPer {
		t.Fatalf("spans = %d, want %d", len(got.Spans), 1+workers*spansPer)
	}
	for i, sp := range got.Spans[1:] {
		if sp.Parent != 0 || sp.Duration < 0 {
			t.Fatalf("span %d malformed: %+v", i+1, sp)
		}
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := NewTrace("request")
	d1 := tr.Finish()
	time.Sleep(2 * time.Millisecond)
	d2 := tr.Finish()
	if d1 != d2 {
		t.Fatalf("Finish must freeze the total: %v vs %v", d1, d2)
	}
}
