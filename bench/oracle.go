package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"

	"bdi/internal/relational"
	"bdi/internal/rewriting"
)

// query is one request of a read workload together with what the oracle
// says its reply must be.
type query struct {
	sparql string
	body   []byte // the JSON request body

	walks int    // expected number of walks
	rows  int    // expected number of answer rows (answer endpoint)
	sum   uint64 // checksum of the rows (answer) or of the walk signatures (rewrite)

	// length is the size of the first reply that passed the full check.
	// The server renders one state of the ontology to one byte sequence,
	// so later replies must have the same size; 0 on evolve, where the
	// reply grows with the releases.
	length int
}

func newQuery(sparql string) (query, error) {
	body, err := json.Marshal(struct {
		SPARQL string `json:"sparql"`
	}{sparql})
	return query{sparql: sparql, body: body}, err
}

// rowSum is an order-independent checksum of a set of rows: the wrapping
// sum of the FNV-1a hash of every row, a row being its columns in name
// order with their values in JSON notation. It is the "FNV of the sorted
// rows" without the sort, so that the reference executor's order and the
// server's need not agree.
type rowSum struct {
	sum  uint64
	keys []string
}

func (s *rowSum) add(row map[string]json.RawMessage) {
	s.keys = s.keys[:0]
	for k := range row {
		s.keys = append(s.keys, k)
	}
	slices.Sort(s.keys)
	h := fnv.New64a()
	for _, k := range s.keys {
		h.Write([]byte(k))
		h.Write([]byte{'='})
		h.Write(row[k])
		h.Write([]byte{';'})
	}
	s.sum += h.Sum64()
}

// relationSum is the rowSum of a relation as the answer endpoint would
// render it.
func relationSum(rel *relational.Relation) (uint64, error) {
	var s rowSum
	row := map[string]json.RawMessage{}
	for _, t := range rel.Tuples {
		clear(row)
		for k, v := range t {
			b, err := json.Marshal(v)
			if err != nil {
				return 0, fmt.Errorf("oracle: rendering %v: %w", v, err)
			}
			row[k] = b
		}
		s.add(row)
	}
	return s.sum, nil
}

// signatureSum is an order-independent checksum of walk signatures.
func signatureSum(signatures []string) uint64 {
	var sum uint64
	for _, s := range signatures {
		h := fnv.New64a()
		h.Write([]byte(s))
		sum += h.Sum64()
	}
	return sum
}

// expectAnswer fills in the oracle's verdict for an answer query: the walk
// count of a cold rewrite and the row count and checksum of the reference
// executor, which shares no code with the compiled engine.
func (q *query) expectAnswer(r *rewriting.Rewriter, resolver relational.WrapperResolver) error {
	omq, err := rewriting.ParseOMQ(q.sparql)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	res, err := r.Rewrite(omq)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	rel, err := r.ExecuteResultReference(res, resolver)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	q.walks, q.rows = res.UCQ.Len(), rel.Cardinality()
	q.sum, err = relationSum(rel)
	return err
}

// expectRewrite fills in the oracle's verdict for a rewrite query.
func (q *query) expectRewrite(r *rewriting.Rewriter) error {
	omq, err := rewriting.ParseOMQ(q.sparql)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	res, err := r.Rewrite(omq)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	q.walks, q.sum = res.UCQ.Len(), signatureSum(res.UCQ.Signatures())
	return nil
}

// answerReply is the part of an AnswerResponse the checks read. Rows stay
// raw: a count needs no values, and the checksum hashes their JSON text.
type answerReply struct {
	Walks []json.RawMessage            `json:"walks"`
	Rows  []map[string]json.RawMessage `json:"rows"`
}

// countedReply reads the counts of either reply type without its values.
type countedReply struct {
	Walks      []json.RawMessage `json:"walks"`
	Signatures []string          `json:"signatures"`
	Rows       []json.RawMessage `json:"rows"`
}

// checkAnswer verifies a reply of POST /api/queries/answer: counts and
// length always, the checksum when full is set. It returns the walk count.
func (q *query) checkAnswer(status int, reply []byte, full bool) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("answer: status %d: %.200s", status, reply)
	}
	if q.length != 0 && len(reply) != q.length {
		return 0, fmt.Errorf("answer: reply of %d bytes, want %d", len(reply), q.length)
	}
	if !full {
		var got countedReply
		if err := json.Unmarshal(reply, &got); err != nil {
			return 0, fmt.Errorf("answer: %w", err)
		}
		if len(got.Rows) != q.rows {
			return 0, fmt.Errorf("answer: %d rows, want %d", len(got.Rows), q.rows)
		}
		return len(got.Walks), nil
	}
	var got answerReply
	if err := json.Unmarshal(reply, &got); err != nil {
		return 0, fmt.Errorf("answer: %w", err)
	}
	if len(got.Rows) != q.rows {
		return 0, fmt.Errorf("answer: %d rows, want %d", len(got.Rows), q.rows)
	}
	var s rowSum
	for _, row := range got.Rows {
		s.add(row)
	}
	if s.sum != q.sum {
		return 0, fmt.Errorf("answer: row checksum %x, want %x", s.sum, q.sum)
	}
	return len(got.Walks), nil
}

// checkRewrite verifies a reply of POST /api/queries/rewrite.
func (q *query) checkRewrite(status int, reply []byte, full bool) (int, error) {
	if status != 200 {
		return 0, fmt.Errorf("rewrite: status %d: %.200s", status, reply)
	}
	if q.length != 0 && len(reply) != q.length {
		return 0, fmt.Errorf("rewrite: reply of %d bytes, want %d", len(reply), q.length)
	}
	var got countedReply
	if err := json.Unmarshal(reply, &got); err != nil {
		return 0, fmt.Errorf("rewrite: %w", err)
	}
	if full {
		if sum := signatureSum(got.Signatures); sum != q.sum {
			return 0, fmt.Errorf("rewrite: signature checksum %x, want %x", sum, q.sum)
		}
	}
	return len(got.Walks), nil
}
