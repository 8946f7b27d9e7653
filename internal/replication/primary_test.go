package replication

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bdi/internal/rdf"
	"bdi/internal/wal"
)

// TestWALStreamIgnoresMaxParameter retains well over one stream bound of
// WAL and asks for all of it with a huge ?max=: the primary must still cut
// the response at maxStreamBytes plus the frame that crosses it, so one
// request cannot make it copy every retained segment into one body.
func TestWALStreamIgnoresMaxParameter(t *testing.T) {
	m, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff, CheckpointEveryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	pad := strings.Repeat("x", 200)
	for rec := 0; rec < 24; rec++ {
		quads := make([]rdf.Quad, 1000)
		for i := range quads {
			s := rdf.IRI(fmt.Sprintf("http://ex/big/%d/%d/%s", rec, i, pad))
			quads[i] = rdf.Quad{Triple: rdf.T(s, rdf.RDFType, rdf.IRI("http://ex/big/Thing"))}
		}
		if _, err := m.Ontology().Store().AddAll(quads); err != nil {
			t.Fatal(err)
		}
	}

	from, err := m.OldestShippableGeneration()
	if err != nil {
		t.Fatal(err)
	}
	all, last, err := m.ShipFrames(from, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	maxFrame := 0
	for gen := from; gen < last; {
		frame, next, err := m.ShipFrames(gen, 1)
		if err != nil {
			t.Fatal(err)
		}
		maxFrame = max(maxFrame, len(frame))
		gen = next
	}
	limit := maxStreamBytes + maxFrame
	if len(all) <= limit {
		t.Fatalf("retained WAL is %d bytes; the test needs more than %d", len(all), limit)
	}

	srv := httptest.NewServer(NewPrimary(m).Handler())
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("%s/api/replication/wal?from=%d&wait=0s&max=1099511627776", srv.URL, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if len(body) > limit {
		t.Fatalf("?max= raised the response to %d bytes (of %d retained); want at most %d", len(body), len(all), limit)
	}
}
