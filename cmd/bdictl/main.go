// Command bdictl is a small command-line client for the BDI ontology
// library. It builds (or loads) an ontology, lets the data steward inspect
// it, and lets analysts pose ontology-mediated queries from the shell.
//
//	bdictl demo                        run the SUPERSEDE running example end to end
//	bdictl stats                       print ontology statistics for the demo ontology
//	bdictl concepts                    list concepts and features of G
//	bdictl sources                     list data sources, wrappers and attributes of S
//	bdictl rewrite  -query file.rq     rewrite an OMQ and print the walks
//	bdictl query    -query file.rq     rewrite, execute and print the answer
//	bdictl releases -file release.json register a wrapper release and print its delta
//	bdictl dump                        dump the ontology as TriG
//	bdictl changes                     print the change taxonomy (Tables 3-5)
//	bdictl checkpoint -addr URL        trigger a checkpoint on a running mdm-server
//	bdictl restore -dir path           recover a data dir offline and print what it holds
//	bdictl replication -addr URL       print replication status (primary or replica)
//	bdictl top -addr URL               one-shot pretty dump of the server's /metrics
//
// The -evolved flag includes the evolved D1 schema version (wrapper w4).
// checkpoint and restore operate on the durability subsystem (internal/wal):
// checkpoint asks a running server (POST /api/durability/checkpoint) to
// serialize a snapshot and rotate its WAL; restore performs read-only crash
// recovery of a -data-dir (latest checkpoint + WAL replay, without
// truncating anything) and prints the recovered ontology's statistics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"bdi"
	"bdi/internal/core"
	"bdi/internal/evolution"
	"bdi/internal/wal"
	"bdi/internal/workload"
)

const demoQuery = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX sup: <http://www.essi.upc.edu/~snadal/BDIOntology/SUPERSEDE/>
PREFIX sc: <http://schema.org/>
SELECT ?x ?y
FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sup:Monitor sup:generatesQoS sup:InfoMonitor .
  sup:InfoMonitor G:hasFeature sup:lagRatio
}
`

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	command := os.Args[1]
	fs := flag.NewFlagSet(command, flag.ExitOnError)
	evolved := fs.Bool("evolved", false, "include the evolved D1 schema version (wrapper w4)")
	queryFile := fs.String("query", "", "file containing a SPARQL OMQ (default: the running example query)")
	releaseFile := fs.String("file", "", "releases: JSON file describing the wrapper release to register")
	addr := fs.String("addr", "http://localhost:8080", "checkpoint: base URL of the running mdm-server")
	dataDir := fs.String("dir", "", "restore: data directory to recover")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	// The durability subcommands operate on a server or a data dir, not on
	// the demo ontology.
	switch command {
	case "checkpoint":
		runCheckpoint(*addr)
		return
	case "restore":
		runRestore(*dataDir)
		return
	case "replication":
		runReplication(*addr)
		return
	case "top":
		runTop(*addr)
		return
	}

	sys, err := buildDemoSystem(*evolved)
	if err != nil {
		fail(err)
	}

	switch command {
	case "demo":
		runDemo(sys)
	case "stats":
		st := sys.Ontology.Stats()
		fmt.Printf("Global graph triples:   %d\n", st.GlobalTriples)
		fmt.Printf("Source graph triples:   %d\n", st.SourceTriples)
		fmt.Printf("Mapping graph triples:  %d (+%d in LAV named graphs)\n", st.MappingTriples, st.LAVGraphTriples)
		fmt.Printf("Concepts/Features:      %d / %d\n", st.Concepts, st.Features)
		fmt.Printf("Sources/Wrappers/Attrs: %d / %d / %d\n", st.DataSources, st.Wrappers, st.Attributes)
	case "concepts":
		v := sys.Ontology.View()
		for _, c := range v.Concepts() {
			fmt.Println(v.Compact(c))
			ids := v.IdentifiersOf(c)
			for _, f := range v.FeaturesOf(c) {
				marker := ""
				if slices.Contains(ids, f) {
					marker = " (ID)"
				}
				fmt.Printf("  - %s%s\n", v.Compact(f), marker)
			}
		}
	case "sources":
		for _, ds := range sys.Ontology.Sources() {
			fmt.Println(core.SourceLocalName(ds.Source))
			for _, w := range ds.Wrappers {
				var attrs []string
				for _, a := range w.Attributes {
					attrs = append(attrs, core.AttributeName(a))
				}
				fmt.Printf("  - %s(%s)\n", core.WrapperLocalName(w.Wrapper), strings.Join(attrs, ", "))
			}
		}
	case "rewrite":
		res, err := sys.Rewrite(context.Background(), parseQuery(loadQuery(*queryFile)))
		if err != nil {
			fail(err)
		}
		fmt.Printf("Union of %d conjunctive quer(y/ies) over the wrappers:\n", res.UCQ.Len())
		fmt.Println(res.UCQ)
	case "query":
		answer, res, err := sys.Answer(context.Background(), parseQuery(loadQuery(*queryFile)), 0)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Rewriting produced %d walk(s): %s\n\n", res.UCQ.Len(), strings.Join(res.UCQ.Signatures(), ", "))
		fmt.Print(answer.Relation())
	case "releases":
		runReleases(sys, *releaseFile)
	case "dump":
		fmt.Print(sys.Ontology.Store().DumpTriG(sys.Ontology.Prefixes()))
	case "changes":
		for _, level := range []evolution.Level{evolution.APILevel, evolution.MethodLevel, evolution.ParameterLevel} {
			fmt.Printf("%s changes:\n", level)
			for _, c := range evolution.ByLevel(level) {
				fmt.Printf("  %-40s handled by %s\n", c.Kind, c.Handler)
			}
		}
	default:
		usage()
		os.Exit(2)
	}
}

func buildDemoSystem(evolved bool) (*bdi.System, error) {
	sys := bdi.NewSystem()
	if err := bdi.BuildSupersedeGlobalGraph(sys.Ontology); err != nil {
		return nil, err
	}
	reg := workload.SupersedeTable1Registry(evolved)
	releases := []bdi.Release{bdi.SupersedeReleaseW1(), bdi.SupersedeReleaseW2(), bdi.SupersedeReleaseW3()}
	if evolved {
		releases = append(releases, bdi.SupersedeReleaseW4())
	}
	for _, r := range releases {
		w, _ := reg.Get(r.Wrapper.Name)
		if _, err := sys.RegisterRelease(r, w); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func runDemo(sys *bdi.System) {
	fmt.Println("SUPERSEDE running example (paper §2.1)")
	fmt.Println("Query: for each applicationId, fetch its lagRatio instances")
	answer, res, err := sys.Answer(context.Background(), parseQuery(demoQuery), 0)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nWalks over the wrappers:\n%s\n\n", res.UCQ)
	fmt.Println("Answer (Table 2 of the paper):")
	fmt.Print(answer.Relation())
}

// runReleases registers a wrapper release from a JSON file (the shape POST
// /api/releases accepts, bdi.ReleaseRequest) against the demo ontology
// (Algorithm 1) and prints what it changed, including the computed
// ReleaseDelta — the concepts, features, attributes and edges whose cached
// rewritings the release can retire.
func runReleases(sys *bdi.System, path string) {
	if path == "" {
		fail(fmt.Errorf("releases: -file is required (a JSON release spec; see `bdictl releases -help`)"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	var spec bdi.ReleaseRequest
	if err := json.Unmarshal(data, &spec); err != nil {
		fail(fmt.Errorf("releases: parsing %s: %w", path, err))
	}
	res, err := sys.RegisterRelease(spec.Release())
	if err != nil {
		fail(err)
	}
	pm := sys.Ontology.Prefixes()
	fmt.Printf("Registered release #%d of wrapper %s (source %s)\n", res.Sequence, spec.Wrapper, spec.Source)
	fmt.Printf("  triples added: %d (%d in S), attributes: %d new / %d reused\n",
		res.TriplesAdded, res.SourceTriplesAdded, len(res.NewAttributes), len(res.ReusedAttributes))
	d := res.Delta
	fmt.Printf("ReleaseDelta (%s):\n", d)
	fmt.Println("  concepts affected:")
	for _, c := range d.Concepts {
		fmt.Printf("    - %s\n", pm.Compact(c))
	}
	fmt.Println("  features affected:")
	for _, fe := range d.Features {
		fmt.Printf("    - %s\n", pm.Compact(fe))
	}
	fmt.Println("  attributes:")
	for _, a := range d.Attributes {
		fmt.Printf("    - %s\n", core.AttributeName(a))
	}
	if len(d.Edges) > 0 {
		fmt.Println("  edges provided:")
		for _, e := range d.Edges {
			fmt.Printf("    - %s -> %s\n", pm.Compact(e[0]), pm.Compact(e[1]))
		}
	}
	fmt.Println("-> cached rewritings whose footprint avoids these elements survive this release")
}

// runCheckpoint asks a running mdm-server to write a checkpoint and rotate
// its WAL, then prints what it wrote.
func runCheckpoint(addr string) {
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(strings.TrimRight(addr, "/")+"/api/durability/checkpoint", "application/json", nil)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		fail(fmt.Errorf("checkpoint: server answered %s: %s", resp.Status, e.Error))
	}
	var info struct {
		Generation     uint64 `json:"generation"`
		Quads          int    `json:"quads"`
		Bytes          int64  `json:"bytes"`
		DurationNs     int64  `json:"durationNs"`
		SegmentsPruned int    `json:"segmentsPruned"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		fail(fmt.Errorf("checkpoint: decoding response: %w", err))
	}
	fmt.Printf("checkpoint written at generation %d: %d quads, %d bytes in %s; %d WAL segment(s) pruned\n",
		info.Generation, info.Quads, info.Bytes, time.Duration(info.DurationNs).Round(time.Microsecond), info.SegmentsPruned)
}

// runRestore performs read-only crash recovery of a data dir and prints the
// recovered state: what the checkpoint held, what the WAL replayed, and the
// ontology statistics the next boot would serve.
func runRestore(dir string) {
	if dir == "" {
		fail(fmt.Errorf("restore: -dir is required (an mdm-server -data-dir)"))
	}
	o, rec, err := wal.Inspect(dir)
	if err != nil {
		fail(err)
	}
	fmt.Printf("recovered %s (read-only)\n", dir)
	fmt.Printf("  checkpoint:      generation %d, %d quads", rec.CheckpointGeneration, rec.CheckpointQuads)
	if rec.CheckpointsSkipped > 0 {
		fmt.Printf(" (%d newer checkpoint(s) failed verification)", rec.CheckpointsSkipped)
	}
	fmt.Println()
	fmt.Printf("  WAL replay:      %d record(s) across %d segment(s)\n",
		rec.RecordsReplayed, rec.SegmentsScanned)
	if rec.TornTail {
		fmt.Printf("  torn tail:       %d byte(s) would be truncated on a live open\n", rec.TruncatedBytes)
	}
	fmt.Printf("  final state:     generation %d, %d quads\n", rec.FinalGeneration, o.Store().Len())
	st := o.Stats()
	fmt.Printf("  ontology:        G=%d S=%d M=%d (+%d LAV) triples; %d concepts, %d features, %d sources, %d wrappers, %d attributes\n",
		st.GlobalTriples, st.SourceTriples, st.MappingTriples, st.LAVGraphTriples,
		st.Concepts, st.Features, st.DataSources, st.Wrappers, st.Attributes)
}

// runReplication prints the GET /api/replication document of a running
// server in either role: a primary's shipping window and known replicas, or
// a replica's sync state and staleness.
func runReplication(addr string) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(strings.TrimRight(addr, "/") + "/api/replication")
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fail(fmt.Errorf("replication: server answered 404 — not a durable primary or replica (start with -data-dir or -replica-of)"))
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		fail(fmt.Errorf("replication: server answered %s: %s", resp.Status, e.Error))
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		fail(fmt.Errorf("replication: decoding response: %w", err))
	}
	role, _ := doc["role"].(string)
	asUint := func(key string) uint64 {
		v, _ := doc[key].(float64)
		return uint64(v)
	}
	switch role {
	case "primary":
		fmt.Printf("role:              primary\n")
		fmt.Printf("generation:        %d\n", asUint("generation"))
		fmt.Printf("WAL ships from:    generation %d\n", asUint("oldestWalGeneration"))
		fmt.Printf("last checkpoint:   generation %d\n", asUint("lastCheckpointGeneration"))
		replicas, _ := doc["replicas"].([]any)
		fmt.Printf("replicas seen:     %d\n", len(replicas))
		for _, r := range replicas {
			m, _ := r.(map[string]any)
			id, _ := m["id"].(string)
			gen, _ := m["generation"].(float64)
			lag, _ := m["lag"].(float64)
			fmt.Printf("  - %-24s generation %d (lag %d)\n", id, uint64(gen), uint64(lag))
		}
	case "replica":
		id, _ := doc["id"].(string)
		primary, _ := doc["primary"].(string)
		synced, _ := doc["synced"].(bool)
		stale, _ := doc["stale"].(bool)
		fmt.Printf("role:              replica (%s)\n", id)
		fmt.Printf("primary:           %s\n", primary)
		fmt.Printf("synced:            %v\n", synced)
		fmt.Printf("generation:        %d (primary at %d, lag %d)\n",
			asUint("generation"), asUint("primaryGeneration"), asUint("lag"))
		if stale {
			reason, _ := doc["staleReason"].(string)
			fmt.Printf("stale:             yes — %s\n", reason)
		} else {
			fmt.Printf("stale:             no\n")
		}
		if stats, ok := doc["stats"].(map[string]any); ok {
			get := func(k string) uint64 {
				v, _ := stats[k].(float64)
				return uint64(v)
			}
			fmt.Printf("applied:           %d frame(s)\n", get("framesApplied"))
			fmt.Printf("resilience:        %d checkpoint fetch(es), %d reconnect(s), %d corrupt frame(s) quarantined, %d gap resync(s), %d divergence resync(s)\n",
				get("checkpointsFetched"), get("reconnects"), get("corruptFrames"), get("gapResyncs"), get("divergenceResyncs"))
		}
	default:
		out, _ := json.MarshalIndent(doc, "", "  ")
		fmt.Println(string(out))
	}
}

// runTop fetches GET /metrics from a running server and pretty-prints it:
// one section per subsystem (the first token after the bdi_ prefix), plain
// counters and gauges as name/value pairs, histograms folded to
// count/avg/max-bucket. A one-shot `top`, not a watcher — run it under
// `watch` for a live view.
func runTop(addr string) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(strings.TrimRight(addr, "/") + "/metrics")
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("top: server answered %s for GET /metrics", resp.Status))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(fmt.Errorf("top: reading response: %w", err))
	}

	text := string(body)
	type hist struct{ sum, count float64 }
	plain := map[string]float64{} // "name{labels}" -> value
	hists := map[string]*hist{}   // family name -> folded sum/count
	var order []string            // display order: series keys and "family\x00hist" markers
	histogram := func(family string) *hist {
		h := hists[family]
		if h == nil {
			h = &hist{}
			hists[family] = h
			order = append(order, family+"\x00hist")
		}
		return h
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valueText := line[:sp], line[sp+1:]
		value, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			continue
		}
		name := series
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		isHistPart := func(suffix string) (string, bool) {
			family, ok := strings.CutSuffix(name, suffix)
			return family, ok && strings.Contains(text, "# TYPE "+family+" histogram")
		}
		if strings.HasSuffix(name, "_bucket") {
			continue // folded into _sum/_count
		}
		if family, ok := isHistPart("_sum"); ok {
			histogram(family).sum += value
			continue
		}
		if family, ok := isHistPart("_count"); ok {
			histogram(family).count += value
			continue
		}
		if _, seen := plain[series]; !seen {
			order = append(order, series)
		}
		plain[series] = value
	}

	section := ""
	for _, key := range order {
		isHist := strings.HasSuffix(key, "\x00hist")
		display := strings.TrimPrefix(strings.TrimSuffix(key, "\x00hist"), "bdi_")
		sub, _, _ := strings.Cut(display, "_")
		if sub != section {
			if section != "" {
				fmt.Println()
			}
			fmt.Println(sub)
			section = sub
		}
		if isHist {
			h := hists[strings.TrimSuffix(key, "\x00hist")]
			avg := ""
			if h.count > 0 {
				avg = fmt.Sprintf(" avg=%s", time.Duration(h.sum/h.count*float64(time.Second)).Round(time.Microsecond))
			}
			fmt.Printf("  %-52s count=%.0f%s\n", display, h.count, avg)
			continue
		}
		fmt.Printf("  %-52s %s\n", display, formatMetricValue(plain[key]))
	}
}

func formatMetricValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parseQuery parses a SPARQL OMQ, failing the command on a syntax error.
func parseQuery(text string) *bdi.OMQ {
	omq, err := bdi.ParseOMQ(text)
	if err != nil {
		fail(err)
	}
	return omq
}

func loadQuery(path string) string {
	if path == "" {
		return demoQuery
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	return string(data)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bdictl <demo|stats|concepts|sources|rewrite|query|releases|dump|changes|checkpoint|restore|replication|top> [-evolved] [-query file] [-file release.json] [-addr url] [-dir data-dir]")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bdictl:", err)
	os.Exit(1)
}
