package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"bdi/internal/rdf"
)

// Parse parses a SPARQL SELECT query in the restricted dialect.
func Parse(input string) (*Query, error) {
	p := &sparqlParser{toks: tokenize(input)}
	return p.parseQuery()
}

// MustParse parses a query and panics on error; intended for tests and
// static query definitions.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type sparqlToken struct {
	value string
	// quoted marks string literals so that keywords inside quotes are not
	// misinterpreted.
	quoted bool
}

// tokenize splits the query text into tokens: punctuation characters are
// their own tokens, quoted strings stay intact, everything else splits on
// whitespace.
func tokenize(input string) []sparqlToken {
	var toks []sparqlToken
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, sparqlToken{value: cur.String()})
			cur.Reset()
		}
	}
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == '#':
			flush()
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '"' || c == '\'':
			flush()
			quote := c
			j := i + 1
			var lit strings.Builder
			for j < len(input) {
				if input[j] == '\\' && j+1 < len(input) {
					lit.WriteByte(input[j])
					lit.WriteByte(input[j+1])
					j += 2
					continue
				}
				if input[j] == quote {
					break
				}
				lit.WriteByte(input[j])
				j++
			}
			toks = append(toks, sparqlToken{value: lit.String(), quoted: true})
			i = j + 1
		case c == '<':
			// An IRIREF cannot contain whitespace or '<', so '<' opens an
			// IRI only when a '>' closes it before either; otherwise it is
			// the FILTER operator '<' or '<='.
			flush()
			j := i + 1
			for j < len(input) && input[j] != '>' && input[j] != '<' && !unicode.IsSpace(rune(input[j])) {
				j++
			}
			switch {
			case j < len(input) && input[j] == '>':
				toks = append(toks, sparqlToken{value: input[i : j+1]})
				i = j + 1
			case i+1 < len(input) && input[i+1] == '=':
				toks = append(toks, sparqlToken{value: "<="})
				i += 2
			default:
				toks = append(toks, sparqlToken{value: "<"})
				i++
			}
		case c == '{' || c == '}' || c == '(' || c == ')' || c == ';' || c == ',':
			flush()
			toks = append(toks, sparqlToken{value: string(c)})
			i++
		case c == '.':
			// A dot is punctuation unless it is part of a number or a prefixed
			// name already being accumulated (e.g. "2.5" or "ex:a.b").
			if cur.Len() > 0 && !isSpaceAhead(input, i+1) {
				cur.WriteByte(c)
				i++
				continue
			}
			flush()
			toks = append(toks, sparqlToken{value: "."})
			i++
		case unicode.IsSpace(rune(c)):
			flush()
			i++
		default:
			cur.WriteByte(c)
			i++
		}
	}
	flush()
	return toks
}

func isSpaceAhead(input string, i int) bool {
	if i >= len(input) {
		return true
	}
	return unicode.IsSpace(rune(input[i])) || input[i] == '}' || input[i] == ')'
}

type sparqlParser struct {
	toks []sparqlToken
	pos  int
	q    *Query
}

func (p *sparqlParser) peek() (sparqlToken, bool) {
	if p.pos >= len(p.toks) {
		return sparqlToken{}, false
	}
	return p.toks[p.pos], true
}

func (p *sparqlParser) next() (sparqlToken, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *sparqlParser) expect(value string) error {
	t, ok := p.next()
	if !ok || !strings.EqualFold(t.value, value) {
		return fmt.Errorf("sparql: expected %q, got %q", value, t.value)
	}
	return nil
}

func (p *sparqlParser) parseQuery() (*Query, error) {
	p.q = NewQuery()
	for {
		t, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("sparql: unexpected end of query")
		}
		switch strings.ToUpper(t.value) {
		case "PREFIX":
			p.pos++
			if err := p.parsePrefix(); err != nil {
				return nil, err
			}
		case "BASE":
			p.pos++
			if _, ok := p.next(); !ok {
				return nil, fmt.Errorf("sparql: BASE requires an IRI")
			}
		case "SELECT":
			p.pos++
			if err := p.parseSelect(); err != nil {
				return nil, err
			}
			return p.q, nil
		default:
			return nil, fmt.Errorf("sparql: unexpected token %q (only SELECT queries are supported)", t.value)
		}
	}
}

func (p *sparqlParser) parsePrefix() error {
	nameTok, ok := p.next()
	if !ok {
		return fmt.Errorf("sparql: PREFIX requires a prefix name")
	}
	iriTok, ok := p.next()
	if !ok {
		return fmt.Errorf("sparql: PREFIX requires a namespace IRI")
	}
	prefix, ok := strings.CutSuffix(nameTok.value, ":")
	if nameTok.quoted || !ok || prefix != "" && !isName(prefix) {
		return fmt.Errorf("sparql: invalid PREFIX name %q", nameTok.value)
	}
	if iriTok.quoted || !strings.HasPrefix(iriTok.value, "<") {
		return fmt.Errorf("sparql: PREFIX %s requires a namespace IRI, got %q", prefix, iriTok.value)
	}
	p.q.Prefixes.Bind(prefix, strings.Trim(iriTok.value, "<>"))
	return nil
}

func (p *sparqlParser) parseSelect() error {
	// Projection list.
	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("sparql: unexpected end of query in SELECT clause")
		}
		upper := strings.ToUpper(t.value)
		if upper == "DISTINCT" {
			p.q.Distinct = true
			p.pos++
			continue
		}
		if upper == "FROM" || upper == "WHERE" || t.value == "{" {
			break
		}
		if t.value == "*" {
			p.pos++
			continue
		}
		if strings.HasPrefix(t.value, "?") || strings.HasPrefix(t.value, "$") {
			v, err := variable(t.value)
			if err != nil {
				return err
			}
			p.q.Select = append(p.q.Select, v)
			p.pos++
			continue
		}
		return fmt.Errorf("sparql: unexpected token %q in SELECT clause", t.value)
	}
	// FROM clause.
	if t, ok := p.peek(); ok && strings.EqualFold(t.value, "FROM") {
		p.pos++
		iriTok, ok := p.next()
		if !ok {
			return fmt.Errorf("sparql: FROM requires a graph IRI")
		}
		term, err := p.resolveTerm(iriTok)
		if err != nil {
			return err
		}
		iri, ok := term.(rdf.IRI)
		if !ok {
			return fmt.Errorf("sparql: FROM requires an IRI, got %v", term)
		}
		p.q.From = iri
	}
	// WHERE clause.
	if t, ok := p.peek(); ok && strings.EqualFold(t.value, "WHERE") {
		p.pos++
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	if err := p.parseGroupGraphPattern(nil); err != nil {
		return err
	}
	// Solution modifiers.
	for {
		t, ok := p.peek()
		if !ok {
			return nil
		}
		switch strings.ToUpper(t.value) {
		case "LIMIT":
			p.pos++
			nTok, ok := p.next()
			if !ok {
				return fmt.Errorf("sparql: LIMIT requires a number")
			}
			n, err := strconv.Atoi(nTok.value)
			if err != nil || n < 0 {
				return fmt.Errorf("sparql: invalid LIMIT %q", nTok.value)
			}
			p.q.Limit = n
		case "OFFSET":
			p.pos++
			nTok, ok := p.next()
			if !ok {
				return fmt.Errorf("sparql: OFFSET requires a number")
			}
			n, err := strconv.Atoi(nTok.value)
			if err != nil || n < 0 {
				return fmt.Errorf("sparql: invalid OFFSET %q", nTok.value)
			}
			p.q.Offset = n
		default:
			return nil
		}
	}
}

// parseGroupGraphPattern parses the body between '{' and '}'. graph is the
// enclosing GRAPH term (nil at the top level).
func (p *sparqlParser) parseGroupGraphPattern(graph rdf.Term) error {
	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("sparql: unterminated group graph pattern")
		}
		switch {
		case t.value == "}":
			p.pos++
			return nil
		case strings.EqualFold(t.value, "VALUES"):
			p.pos++
			if err := p.parseValues(); err != nil {
				return err
			}
		case strings.EqualFold(t.value, "FILTER"):
			p.pos++
			if err := p.parseFilter(); err != nil {
				return err
			}
		case strings.EqualFold(t.value, "GRAPH"):
			p.pos++
			gTok, ok := p.next()
			if !ok {
				return fmt.Errorf("sparql: GRAPH requires a name")
			}
			gTerm, err := p.resolveTerm(gTok)
			if err != nil {
				return err
			}
			if err := p.expect("{"); err != nil {
				return err
			}
			if err := p.parseGroupGraphPattern(gTerm); err != nil {
				return err
			}
		case t.value == ".":
			p.pos++
		default:
			if err := p.parseTriplesBlock(graph); err != nil {
				return err
			}
		}
	}
}

func (p *sparqlParser) parseValues() error {
	if err := p.expect("("); err != nil {
		return err
	}
	for {
		t, ok := p.next()
		if !ok {
			return fmt.Errorf("sparql: unterminated VALUES variable list")
		}
		if t.value == ")" {
			break
		}
		if !strings.HasPrefix(t.value, "?") && !strings.HasPrefix(t.value, "$") {
			return fmt.Errorf("sparql: VALUES expects variables, got %q", t.value)
		}
		v, err := variable(t.value)
		if err != nil {
			return err
		}
		p.q.Values.Variables = append(p.q.Values.Variables, v)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	for {
		t, ok := p.peek()
		if !ok {
			return fmt.Errorf("sparql: unterminated VALUES block")
		}
		if t.value == "}" {
			p.pos++
			return nil
		}
		if err := p.expect("("); err != nil {
			return err
		}
		var row []rdf.Term
		for {
			rt, ok := p.next()
			if !ok {
				return fmt.Errorf("sparql: unterminated VALUES row")
			}
			if rt.value == ")" {
				break
			}
			term, err := p.resolveTerm(rt)
			if err != nil {
				return err
			}
			row = append(row, term)
		}
		p.q.Values.Rows = append(p.q.Values.Rows, row)
	}
}

func (p *sparqlParser) parseFilter() error {
	if err := p.expect("("); err != nil {
		return err
	}
	leftTok, ok := p.next()
	if !ok {
		return fmt.Errorf("sparql: FILTER requires a left operand")
	}
	left, err := p.resolveTerm(leftTok)
	if err != nil {
		return err
	}
	opTok, ok := p.next()
	if !ok {
		return fmt.Errorf("sparql: FILTER requires an operator")
	}
	var op FilterOp
	switch opTok.value {
	case "=", "==":
		op = OpEq
	case "!=":
		op = OpNeq
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return fmt.Errorf("sparql: unsupported FILTER operator %q", opTok.value)
	}
	rightTok, ok := p.next()
	if !ok {
		return fmt.Errorf("sparql: FILTER requires a right operand")
	}
	right, err := p.resolveTerm(rightTok)
	if err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	p.q.Filters = append(p.q.Filters, Filter{Left: left, Op: op, Right: right})
	return nil
}

// parseTriplesBlock parses "subject predicate object (; predicate object)* ."
func (p *sparqlParser) parseTriplesBlock(graph rdf.Term) error {
	subjTok, ok := p.next()
	if !ok {
		return fmt.Errorf("sparql: expected a subject")
	}
	subject, err := p.resolveTerm(subjTok)
	if err != nil {
		return err
	}
	for {
		predTok, ok := p.next()
		if !ok {
			return fmt.Errorf("sparql: expected a predicate after %v", subject)
		}
		var predicate rdf.Term
		if predTok.value == "a" {
			predicate = rdf.RDFType
		} else {
			predicate, err = p.resolveTerm(predTok)
			if err != nil {
				return err
			}
		}
		objTok, ok := p.next()
		if !ok {
			return fmt.Errorf("sparql: expected an object after %v %v", subject, predicate)
		}
		object, err := p.resolveTerm(objTok)
		if err != nil {
			return err
		}
		p.q.Where = append(p.q.Where, TriplePattern{Subject: subject, Predicate: predicate, Object: object, Graph: graph})

		sep, ok := p.peek()
		if !ok {
			return nil
		}
		switch sep.value {
		case ";":
			p.pos++
			// Same subject, new predicate/object.
			continue
		case ".":
			p.pos++
			return nil
		case "}":
			return nil
		default:
			// New triples block begins (no dot); hand control back.
			return nil
		}
	}
}

// resolveTerm converts a token into an RDF term, expanding prefixed names
// against the query's prefix map.
func (p *sparqlParser) resolveTerm(t sparqlToken) (rdf.Term, error) {
	v := t.value
	if t.quoted {
		return p.literal(rdf.UnescapeLiteral(v))
	}
	switch {
	case v == "":
		return nil, fmt.Errorf("sparql: empty term")
	case strings.HasPrefix(v, "?") || strings.HasPrefix(v, "$"):
		return variable(v)
	case strings.HasPrefix(v, "<") && strings.HasSuffix(v, ">"):
		return rdf.IRI(strings.Trim(v, "<>")), nil
	case strings.HasPrefix(v, "_:"):
		if !isName(v[2:]) {
			return nil, fmt.Errorf("sparql: invalid blank node label %q", v)
		}
		return rdf.NewBlankNode(v[2:]), nil
	case v == "true" || v == "false":
		return rdf.NewTypedLiteral(v, rdf.XSDBoolean), nil
	}
	if _, err := strconv.ParseInt(v, 10, 64); err == nil {
		return rdf.NewTypedLiteral(v, rdf.XSDInteger), nil
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return rdf.NewTypedLiteral(v, rdf.XSDDecimal), nil
	}
	if strings.Contains(v, ":") {
		iri, _ := p.q.Prefixes.Expand(v)
		if strings.Contains(string(iri), ">") {
			return nil, fmt.Errorf("sparql: %q expands to an IRI containing '>'", v)
		}
		return iri, nil
	}
	return nil, fmt.Errorf("sparql: cannot interpret token %q as a term", v)
}

// literal builds the literal for a quoted lexical form, consuming a
// following language tag ("@en") or datatype ("^^<iri>", "^^prefix:local").
func (p *sparqlParser) literal(lexical string) (rdf.Term, error) {
	t, ok := p.peek()
	switch {
	case !ok || t.quoted:
	case strings.HasPrefix(t.value, "@"):
		p.pos++
		if !isName(t.value[1:]) {
			return nil, fmt.Errorf("sparql: invalid language tag %q", t.value)
		}
		return rdf.NewLangLiteral(lexical, t.value[1:]), nil
	case strings.HasPrefix(t.value, "^^"):
		p.pos++
		dt := sparqlToken{value: t.value[2:]}
		if dt.value == "" {
			if dt, ok = p.next(); !ok || dt.quoted {
				return nil, fmt.Errorf("sparql: expected a datatype IRI after %q^^", lexical)
			}
		}
		term, err := p.resolveTerm(dt)
		if err != nil {
			return nil, err
		}
		iri, ok := term.(rdf.IRI)
		if !ok {
			return nil, fmt.Errorf("sparql: literal datatype must be an IRI, got %q", dt.value)
		}
		return rdf.NewTypedLiteral(lexical, iri), nil
	}
	return rdf.NewLiteral(lexical), nil
}

// variable returns the variable a "?name" or "$name" token denotes.
func variable(tok string) (rdf.Variable, error) {
	if !isName(tok[1:]) {
		return "", fmt.Errorf("sparql: invalid variable %q", tok)
	}
	return rdf.NewVariable(tok[1:]), nil
}

// isName reports whether s can stand as a variable name, blank node label,
// prefix name or language tag: a non-empty run of letters, digits, '_', '-'
// and '.' that does not end in '.', which the tokenizer would split off.
// Query.String renders such names verbatim, so anything else would not read
// back as the same query.
func isName(s string) bool {
	if s == "" || strings.HasSuffix(s, ".") {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' && r != '.' {
			return false
		}
	}
	return true
}
