package main

import (
	"encoding/json"
	"io"
)

// This file is the single statement of what the benchmark measures. The
// BENCHMARK.json at the root of the repository is this table printed by
// `-spec`; smoke_test.go fails when the two drift apart.

// runSeconds is the length of the timed window the sizes below were tuned
// for (BENCHMARK.json run_seconds).
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlAnswerRows  = "answer-rows"
	wlAnswerWalks = "answer-walks"
	wlRewriteMiss = "rewrite-miss"
	wlEvolve      = "evolve"
)

var workloadSpecs = []workloadSpec{
	{wlAnswerRows, "SUPERSEDE query over JSON wrappers, thousands of rows per answer: fetch, ingest, join, decode, sort and encode do the work; rewriting is a cache hit"},
	{wlAnswerWalks, "Figure 8 worst case, 243 walks of 3 rows: per-walk compile, scheduling and union dominate, row volume is nil; guards per-walk overhead"},
	{wlRewriteMiss, "384 distinct OMQs in cyclic order over a rewriting cache of 256: every request runs Algorithms 2-5 on a read-only store; set-up is a bulk load"},
	{wlEvolve, "durable primary absorbing a fixed release trace while a second client queries: store copy-on-write, server lock, invalidation and WAL; the only writes"},
}

// Every workload reports every end-to-end metric, so the request metrics are
// named for the role and not the endpoint: the request is POST
// /api/queries/answer on answer-rows and answer-walks, POST
// /api/queries/rewrite on rewrite-miss and POST /api/releases on evolve.
var endToEndSpecs = []metricSpec{
	{"request_p50_ms", "ms", "lower", 0.25},
	{"request_p95_ms", "ms", "lower", 0.25},
	{"request_rps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.10},
}

// Per-layer metrics are <package>.<name>. A metric reads 0 on a workload
// that bypasses its layer; bench/README.md has the layer-by-workload matrix.
var perLayerSpecs = []metricSpec{
	{"mdm.http_overhead_ms", "ms", "lower", 0},
	{"mdm.encode_ms", "ms", "lower", 0},
	{"mdm.response_kb", "KB", "lower", 0},
	{"mdm.request_p99_ms", "ms", "lower", 0},
	{"mdm.answer_p50_ms", "ms", "lower", 0},
	{"mdm.answer_p95_ms", "ms", "lower", 0},
	{"mdm.answer_rps", "1/s", "higher", 0},
	{"mdm.lock_wait_ratio", "ratio", "lower", 0},

	{"sparql.parse_us", "us", "lower", 0},
	{"sparql.eval_ms_per_rewrite", "ms", "lower", 0},
	{"sparql.evals_per_rewrite", "count", "lower", 0},
	{"sparql.rows_per_eval", "count", "lower", 0},

	{"store.matches_per_rewrite", "count", "lower", 0},
	{"store.addall_ms_per_release", "ms", "lower", 0},
	{"store.quads_per_release", "count", "lower", 0},

	{"rewriting.hit_us", "us", "lower", 0},
	{"rewriting.cold_ms", "ms", "lower", 0},
	{"rewriting.wellformed_us", "us", "lower", 0},
	{"rewriting.expand_us", "us", "lower", 0},
	{"rewriting.intra_us", "us", "lower", 0},
	{"rewriting.inter_us", "us", "lower", 0},
	{"rewriting.cache_hit_ratio", "ratio", "higher", 0},
	{"rewriting.unit_hit_ratio", "ratio", "higher", 0},
	{"rewriting.entries_retained_ratio", "ratio", "higher", 0},
	{"rewriting.unit_build_ms_total", "ms", "lower", 0},
	{"rewriting.walks_per_query", "count", "lower", 0},

	{"core.new_release_us", "us", "lower", 0},
	{"core.new_release_growth", "ratio", "lower", 0},
	{"core.triples_per_release", "count", "lower", 0},
	{"core.attr_reuse_ratio", "ratio", "higher", 0},

	{"relational.exec_ms", "ms", "lower", 0},
	{"relational.walk_self_ms", "ms", "lower", 0},
	{"relational.union_self_ms", "ms", "lower", 0},
	{"relational.ingest_ms", "ms", "lower", 0},
	{"relational.decode_ms", "ms", "lower", 0},
	{"relational.sort_ms", "ms", "lower", 0},
	{"relational.rows_per_answer", "count", "lower", 0},
	{"relational.walks_per_answer", "count", "lower", 0},
	{"relational.alloc_mb_per_answer", "MB", "lower", 0},

	{"wrapper.fetch_ms", "ms", "lower", 0},
	{"wrapper.fetches_per_answer", "count", "lower", 0},
	{"wrapper.rows_per_answer", "count", "lower", 0},

	{"wal.append_us_per_release", "us", "lower", 0},
	{"wal.fsyncs_per_release", "count", "lower", 0},
	{"wal.fsync_ms_total", "ms", "lower", 0},
	{"wal.bytes_per_release", "B", "lower", 0},
	{"wal.bytes_per_quad", "B", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.checkpoint_mb", "MB", "lower", 0},
	{"wal.checkpoint_bytes_per_quad", "B", "lower", 0},
	{"wal.recovery_ms", "ms", "lower", 0},
	{"wal.recovery_records", "count", "lower", 0},
	{"wal.recovery_after_checkpoint_ms", "ms", "lower", 0},

	{"replication.catchup_ms", "ms", "lower", 0},
	{"replication.catchup_frames", "count", "lower", 0},

	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
}

// boundedSpec is an end-to-end entry of BENCHMARK.json: bound is always
// present there, while a per-layer entry has no such key.
type boundedSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// writeSpec prints BENCHMARK.json.
func writeSpec(w io.Writer) error {
	e2e := make([]boundedSpec, len(endToEndSpecs))
	for i, m := range endToEndSpecs {
		e2e[i] = boundedSpec(m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []boundedSpec  `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   e2e,
		PerLayer:   perLayerSpecs,
	})
}
