package main

import (
	"bytes"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestSpecIsBenchmarkJSON pins BENCHMARK.json to the tables of spec.go and
// checks the limits the benchmark contract puts on names, units and reasons.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json is not what `bench -spec` prints; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: reason has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	for _, m := range slices.Concat(endToEndSpecs, perLayerSpecs) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEndSpecs {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload at tiny scale, end to end and traced: no
// operation may fail, and the metrics reported must be exactly the ones
// BENCHMARK.json lists, every end-to-end one above zero.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	names := func(specs []metricSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.Name)
		}
		slices.Sort(out)
		return out
	}
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(options{workload: w.Name, seed: 7, seconds: 1, trace: trace, scaleName: "tiny", scale: scales["tiny"]})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			want := names(endToEndSpecs)
			if trace {
				want = names(perLayerSpecs)
			}
			var got []string
			for n, v := range res.Metrics {
				got = append(got, n)
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, n, v.Value)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.Name, trace, got, want)
			}
			if trace {
				var shares float64
				for _, row := range res.spans.Table {
					shares += row.SharePct
				}
				if shares < 98 || shares > 102 {
					t.Errorf("%s: span shares sum to %.1f%%", w.Name, shares)
				}
			}
		}
	}
}

// requestBodies is every request body the generator makes for a workload.
func requestBodies(t *testing.T, workload string, seed int64) [][]byte {
	t.Helper()
	rng, sc := rand.New(rand.NewSource(seed)), scales["tiny"]
	var bodies [][]byte
	if workload == wlEvolve {
		sys, st, err := buildEvolve(sc, rng)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.discard()
		for _, q := range st.queries {
			bodies = append(bodies, q.body)
		}
		for _, op := range st.trace {
			bodies = append(bodies, op.body)
		}
		return bodies
	}
	sys, queries, err := readWorkloads[workload].setup(sc, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.discard()
	for _, q := range queries {
		bodies = append(bodies, q.body)
	}
	return bodies
}

// TestGeneratorIsSeeded: one seed, the same bytes; another seed, others.
func TestGeneratorIsSeeded(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloadSpecs {
		a, b, c := requestBodies(t, w.Name, 1), requestBodies(t, w.Name, 1), requestBodies(t, w.Name, 2)
		same := func(x, y [][]byte) bool { return slices.EqualFunc(x, y, bytes.Equal) }
		if !same(a, b) {
			t.Errorf("%s: two generator runs with seed 1 differ", w.Name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 1 and 2 generate the same request bodies", w.Name)
		}
	}
}
