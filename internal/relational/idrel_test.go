package relational

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// oneWalkAnswer executes the one-walk union over a single wrapper with the
// given schema and tuples.
func oneWalkAnswer(t *testing.T, schema Schema, tuples []Tuple) *IDRelation {
	t.Helper()
	rel := NewRelation("w", schema)
	rel.Add(tuples...)
	walk := NewWalk("w", "S", schema.Names()...)
	answer, err := executeUnion(context.Background(), []*Walk{walk}, staticResolver{"w": rel}, ExecOptions{Name: "answer"})
	if err != nil {
		t.Fatal(err)
	}
	return answer
}

// marshalRows is the reference encoding: encoding/json over the decoded
// tuples copied into maps, a nil slice when there are none.
func marshalRows(rel *Relation) ([]byte, error) {
	var rows []map[string]any
	for _, t := range rel.Tuples {
		row := map[string]any{}
		for k, v := range t {
			row[k] = v
		}
		rows = append(rows, row)
	}
	return json.Marshal(rows)
}

// checkAnswerJSON asserts that AppendJSON writes what encoding/json writes
// for the decoded answer, and fails where it fails.
func checkAnswerJSON(t *testing.T, answer *IDRelation) {
	t.Helper()
	want, wantErr := marshalRows(answer.Relation())
	got, gotErr := answer.AppendJSON([]byte("prefix"))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encoding/json error %v, AppendJSON error %v\nrelation: %s", wantErr, gotErr, answer.Relation())
	}
	if wantErr != nil {
		return
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("AppendJSON diverges from encoding/json\ngot:  %q\nwant: %q", got, "prefix"+string(want))
	}
}

// TestAnswerJSONMatchesEncodingJSON pins the shapes the fuzz target only
// reaches by chance: no rows, a name the schema repeats, missing cells,
// cells that share a ValueID and a NaN.
func TestAnswerJSONMatchesEncodingJSON(t *testing.T) {
	schema := NewSchema([]string{"id"}, []string{"b", "a<&>", " "})
	checkAnswerJSON(t, oneWalkAnswer(t, schema, nil))
	if got, _ := oneWalkAnswer(t, schema, nil).AppendJSON(nil); string(got) != "null" {
		t.Fatalf("an empty answer encodes as %s, want null", got)
	}
	checkAnswerJSON(t, oneWalkAnswer(t, schema, []Tuple{
		{"id": 12, "b": 12.0, " ": int64(12)},
		{"id": 1, "a<&>": "<x>", "b": nil},
		{"id": -0.0, "a<&>": "\xff", "b": 1e21},
		{"id": 1e-7, "a<&>": "\x1f", "b": true},
	}))
	repeated := Schema{Attributes: []Attribute{{Name: "id", ID: true}, {Name: "v"}, {Name: "v"}}}
	checkAnswerJSON(t, oneWalkAnswer(t, repeated, []Tuple{{"id": 1, "v": "x"}, {"id": 2}}))

	_, err := oneWalkAnswer(t, schema, []Tuple{{"id": 1, "b": math.NaN()}}).AppendJSON(nil)
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("a NaN cell must fail naming its column, got %v", err)
	}
}

// fuzzValue draws a cell from the classes encoding/json and keyOf treat
// differently.
func fuzzValue(g *byteGen) Value {
	switch g.intn(12) {
	case 0:
		b := make([]byte, g.intn(6))
		for i := range b {
			b[i] = g.next()
		}
		return string(b) // control bytes and invalid UTF-8 included
	case 1:
		return []string{"<>&", " ", " ", "\x1f", "\x00", "\xff\xfe", "12", "[1 2]", "5ns", "a\"b\\"}[g.intn(10)]
	case 2:
		var b [8]byte
		for i := range b {
			b[i] = g.next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])) // NaN, ±Inf, subnormals
	case 3:
		return []float64{math.Copysign(0, -1), 0, 1e21, 1e20, 1e-7, 1e-6, 5e-324, 0.1, 12.5, -3}[g.intn(10)]
	case 4:
		return int(int8(g.next()))
	case 5:
		var b [8]byte
		for i := range b {
			b[i] = g.next()
		}
		return int64(binary.LittleEndian.Uint64(b[:]))
	case 6:
		return []Value{12, 12.0, int64(12)}[g.intn(3)] // one ValueID
	case 7:
		return g.pct(50)
	case 8:
		return nil
	case 9:
		// Non-JSON kinds in keyOf's %v class: each renders like a string
		// above, so which one represents the class depends on the order.
		return []Value{[]int{1, 2}, time.Duration(5), struct{ A int }{1}, map[string]any{"k": 1.5}}[g.intn(4)]
	case 10:
		return fmt.Sprint(g.intn(4))
	default:
		return float64(g.intn(4)) / 2
	}
}

// FuzzAnswerJSON feeds random cells through a one-walk union and asserts
// that AppendJSON writes exactly what encoding/json writes for the decoded
// answer, and that both fail on the same answers (a NaN, an infinity). The
// corpus under testdata/fuzz/FuzzAnswerJSON and the seeds below cover
// escapes, numbers, shared ValueIDs and missing cells.
func FuzzAnswerJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("answer-json"))
	f.Add([]byte{3, 5, 1, 0, 1, 1, 2, 9, 3, 0, 6, 1, 6, 2, 8, 7, 1})
	f.Add([]byte{2, 4, 0, 2, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &byteGen{data: data}
		names := []string{"id", "v", "<&>", " ", "\xff", "a\x1fb", "v"}
		nonID := make([]string, g.intn(4))
		for i := range nonID {
			nonID[i] = names[1+g.intn(len(names)-1)]
		}
		schema := NewSchema([]string{"id"}, nonID)
		tuples := make([]Tuple, g.intn(8))
		for r := range tuples {
			tuples[r] = Tuple{}
			for _, n := range schema.Names() {
				if !g.pct(15) {
					tuples[r][n] = fuzzValue(g)
				}
			}
		}
		checkAnswerJSON(t, oneWalkAnswer(t, schema, tuples))
	})
}

// TestAnswerJSONAllocatesPerValue guards the encoder's cost model: values are
// marshaled once per distinct ValueID into the dictionary's cache, so a cold
// encode allocates a few objects per distinct value however many cells
// repeat it (an encoder marshaling per cell allocates at least once per
// cell), and a warm one allocates only per column.
func TestAnswerJSONAllocatesPerValue(t *testing.T) {
	const rows = 1000
	cols := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	schema := NewSchema([]string{"id"}, cols)
	tuples := make([]Tuple, rows)
	for i := range tuples {
		tuples[i] = Tuple{"id": i}
		for c, name := range cols {
			tuples[i][name] = []Value{i % 4, fmt.Sprint(i % 3), float64(i%5) + 0.5, i%2 == 0}[c%4]
		}
	}
	answer := oneWalkAnswer(t, schema, tuples)
	distinct := rows + 4 + 3 + 5 + 2
	cells := rows * (1 + len(cols))
	dst := make([]byte, 0, 128*rows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := answer.AppendJSON(dst)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	cold := after.Mallocs - before.Mallocs
	if cold > 3*uint64(distinct) {
		t.Fatalf("a cold encode of %d cells over %d distinct values allocates %d objects", cells, distinct, cold)
	}
	warm := testing.AllocsPerRun(5, func() { out, _ = answer.AppendJSON(dst) })
	if perColumn := warm / float64(1+len(cols)); perColumn > 8 {
		t.Fatalf("a warm encode of %d rows allocates %.1f objects per column, want a few per column only", rows, perColumn)
	}
	t.Logf("%d bytes; %d cells over %d distinct values; cold encode %d allocations, warm %.0f", len(out), cells, distinct, cold, warm)
}
