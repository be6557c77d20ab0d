package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"iter"
	"math"
	"net/http"
	"unicode/utf8"

	mis "repro"
)

// The vertex-set codec: the two payloads that carry a whole vertex list —
// a POST /v1/verify body and a solve response with include_vertices — are
// parsed and written in one pass, without encoding/json's reflection per
// element. Both keep encoding/json's semantics: the parser accepts only
// bodies encoding/json decodes to the same value and hands every other
// body to it, and the writer's output decodes to the same SolveResponse as
// writeJSON's.

// envelopeBytes is the body allowance beyond the longest vertex list: keys,
// the graph name, the timeout and any other request field.
const envelopeBytes = 64 << 10

// bodyLimit bounds POST bodies: a verify request listing every vertex of
// the largest registered graph, at most 10 digits and a comma per vertex,
// plus the envelope. A graph keeps its vertex count for the registry's
// lifetime (compaction folds edges only), so the limit is fixed at start.
func bodyLimit(reg *mis.Registry) int64 {
	maxN := 0
	for _, name := range reg.Names() {
		if e, ok := reg.Get(name); ok {
			f, release := e.Acquire()
			maxN = max(maxN, f.NumVertices())
			release()
		}
	}
	return 11*int64(maxN) + envelopeBytes
}

// readBody reads a POST body whole, into a buffer sized from
// Content-Length when the client sent one. A body over s.maxBody is
// refused before any of it is parsed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *APIError) {
	if r.ContentLength > s.maxBody {
		return nil, invalid("request body exceeds the %d-byte limit", s.maxBody)
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	var (
		buf []byte
		err error
	)
	if r.ContentLength >= 0 {
		buf = make([]byte, r.ContentLength)
		_, err = io.ReadFull(body, buf)
	} else {
		buf, err = io.ReadAll(body)
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, invalid("request body exceeds the %d-byte limit", s.maxBody)
	}
	if err != nil {
		return nil, invalid("bad request body: %v", err)
	}
	return buf, nil
}

// decodeJSON decodes the first JSON value of body into v. Unknown fields
// are an error; bytes after the value are not read.
func decodeJSON(body []byte, v any) *APIError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return invalid("bad request body: %v", err)
	}
	return nil
}

// decodeVerifyRequest decodes a POST /v1/verify body: in one pass when it
// is in the canonical form json.Marshal emits, through decodeJSON
// otherwise.
func decodeVerifyRequest(body []byte) (VerifyRequest, *APIError) {
	if req, ok := parseVerifyRequest(body); ok {
		return req, nil
	}
	var req VerifyRequest
	return req, decodeJSON(body, &req)
}

// parseVerifyRequest parses a canonical VerifyRequest: an object without
// whitespace whose keys are exactly "graph", "vertices" and "timeout_ms",
// each at most once, whose string has no escapes and whose numbers are
// plain decimal integers in range; vertices may be null. Bytes after the
// closing brace are ignored, as json.Decoder never reads them. ok is false
// for any other input, valid or not, and the value is then meaningless.
func parseVerifyRequest(b []byte) (req VerifyRequest, ok bool) {
	p := parser{b: b}
	if !p.eat('{') {
		return req, false
	}
	if p.eat('}') {
		return req, true
	}
	var seenGraph, seenVertices, seenTimeout bool
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return req, false
		}
		switch string(key) {
		case "graph":
			var graph []byte
			if graph, ok = p.str(); !ok || seenGraph {
				return req, false
			}
			req.Graph, seenGraph = string(graph), true
		case "vertices":
			if req.Vertices, ok = p.vertices(); !ok || seenVertices {
				return req, false
			}
			seenVertices = true
		case "timeout_ms":
			var n uint64
			if n, ok = p.number(math.MaxInt64); !ok || seenTimeout {
				return req, false
			}
			req.TimeoutMS, seenTimeout = int64(n), true
		default:
			return req, false
		}
		if p.eat('}') {
			return req, true
		}
		if !p.eat(',') {
			return req, false
		}
	}
}

// parser is a cursor over a canonical JSON body.
type parser struct {
	b []byte
	i int
}

// eat consumes c if it is next.
func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string without escapes or control characters that is
// valid UTF-8 — exactly the strings encoding/json decodes to their own
// bytes — and returns its contents.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number consumes a plain decimal integer no greater than limit (at most
// math.MaxInt64 here): no sign, no leading zero, and — checked by the
// caller's next byte — no fraction or exponent.
func (p *parser) number(limit uint64) (uint64, bool) {
	b, i := p.b, p.i
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d) // wraps only past 19 digits, refused below
	}
	digits := i - p.i
	ok := digits == 1 || (digits > 1 && digits <= 19 && b[p.i] != '0')
	p.i = i
	return n, ok && n <= limit
}

// vertices consumes null or an array of vertex IDs into an exactly sized
// slice ([] decodes to an empty slice, not nil, as in encoding/json).
func (p *parser) vertices() ([]uint32, bool) {
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += len("null")
		return nil, true
	}
	if !p.eat('[') {
		return nil, false
	}
	if p.eat(']') {
		return []uint32{}, true
	}
	// In a canonical array the first ']' closes it and commas separate its
	// elements; in any other the parse below fails and the size is moot.
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]uint32, 0, bytes.Count(p.b[p.i:p.i+end], []byte{','})+1)
	for {
		v, ok := p.number(math.MaxUint32)
		if !ok {
			return nil, false
		}
		out = append(out, uint32(v))
		if p.eat(']') {
			return out, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}

// members yields the IDs of a result's members in ascending order.
func members(inSet []bool) iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for v, in := range inSet {
			if in && !yield(uint32(v)) {
				return
			}
		}
	}
}

// encodeSolveResponse renders resp with ids as its vertex list: the
// envelope through encoding/json, then the IDs written straight into one
// exactly sized buffer. ids must ascend and yield the same IDs each time it
// is ranged over. resp.Vertices is ignored. The output decodes to the
// SolveResponse writeJSON would render for resp with ids as its Vertices;
// only the field order differs.
func encodeSolveResponse(resp *SolveResponse, ids iter.Seq[uint32]) ([]byte, error) {
	env := *resp
	env.Vertices = nil
	var eb bytes.Buffer
	enc := json.NewEncoder(&eb)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&env); err != nil {
		return nil, err
	}
	envelope := eb.Bytes() // {...}\n

	// The list's length: each ID's digits and a separator. IDs ascend, so
	// the width only grows.
	listLen, width, next := 0, 1, uint64(10)
	for v := range ids {
		for uint64(v) >= next {
			width++
			next *= 10
		}
		listLen += width + 1
	}
	if listLen == 0 {
		return envelope, nil // an empty list is omitted, as omitempty does
	}

	const key = `,"vertices":[`
	head := envelope[:len(envelope)-2] // without the closing "}\n"
	buf := make([]byte, len(head)+len(key)+listLen+len("}\n"))
	n := copy(buf, head)
	n += copy(buf[n:], key)
	width, next = 1, 10
	for v := range ids {
		for uint64(v) >= next {
			width++
			next *= 10
		}
		for i := n + width - 1; i >= n; i-- {
			buf[i] = byte('0' + v%10)
			v /= 10
		}
		n += width
		buf[n] = ','
		n++
	}
	buf[n-1] = ']'
	copy(buf[n:], "}\n")
	return buf, nil
}
