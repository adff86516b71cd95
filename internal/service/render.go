package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"repro/internal/core"
)

// Response rendering for the answer-list endpoints (/v1/{advisor}/query,
// /v1/batch, /v1/{advisor}/report). A rule's {"index","text","section",
// "selector"} object is fixed for the life of its advisor and only the score
// changes between requests, so each rule's JSON is rendered once, when the
// advisor enters the Registry, and a response body is assembled from those
// fragments. Every string still goes through encoding/json, and the bodies
// are byte-identical to encoding/json of the wire structs (QueryResponse,
// BatchResponse, ReportResponse) — render_test.go holds them to that.

// ruleFrag is one advising rule's memoized JSON: the sentence it was
// rendered from and the span of ruleFrags.buf holding it.
type ruleFrag struct {
	sent     core.AdvisingSentence
	off, end int32
}

// ruleFrags is an advisor's fragment table. Each fragment is the rule's
// Rule object without its closing brace, ready for ,"score":… and "}".
type ruleFrags struct {
	rules []ruleFrag // in advisor rule order (ascending sentence index)
	at    []int32    // sentence index → position in rules + 1; 0 = not a rule
	buf   []byte
}

// newRuleFrags renders every rule of an advisor once.
func newRuleFrags(rules []core.AdvisingSentence) *ruleFrags {
	t := &ruleFrags{rules: make([]ruleFrag, len(rules))}
	if len(rules) > 0 {
		t.at = make([]int32, rules[len(rules)-1].Index+1)
	}
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	for i, s := range rules {
		off := buf.Len()
		appendRule(enc, &buf, s)
		t.rules[i] = ruleFrag{sent: s, off: int32(off), end: int32(buf.Len())}
		if s.Index >= 0 && s.Index < len(t.at) {
			t.at[s.Index] = int32(i + 1)
		}
	}
	t.buf = bytes.Clone(buf.Bytes())
	return t
}

// lookup returns s's memoized fragment, or nil when the table does not hold
// exactly s — answers computed on an advisor that a reload has since
// replaced. Comparing the whole sentence is cheap: an answer shares its
// strings with the advisor's rules, so equal strings are pointer-equal.
func (t *ruleFrags) lookup(s core.AdvisingSentence) []byte {
	if t == nil || s.Index < 0 || s.Index >= len(t.at) || t.at[s.Index] == 0 {
		return nil
	}
	r := &t.rules[t.at[s.Index]-1]
	if r.sent != s {
		return nil
	}
	return t.buf[r.off:r.end]
}

func newEncoder(buf *bytes.Buffer) *json.Encoder {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc
}

// appendRule appends s's Rule object to buf through enc (which writes into
// buf), without its closing brace.
func appendRule(enc *json.Encoder, buf *bytes.Buffer, s core.AdvisingSentence) {
	// a Rule has only strings and an int: encoding cannot fail, and a
	// bytes.Buffer never returns a write error
	_ = enc.Encode(toRule(s))
	buf.Truncate(buf.Len() - len("}\n"))
}

// errUnsupportedFloat is a NaN or infinite score, which JSON cannot carry.
var errUnsupportedFloat = errors.New("service: unsupported float value")

// bodyWriter is the one appender the answer-list endpoints render with.
type bodyWriter struct {
	buf *bytes.Buffer
	enc *json.Encoder // writes into buf
}

// str appends s as a JSON string, escaped by encoding/json.
func (b bodyWriter) str(s string) {
	_ = b.enc.Encode(s) // strings always encode; see appendRule
	b.buf.Truncate(b.buf.Len() - 1)
}

// strField appends key — `,"name":`, or `{"name":` for an object's first
// field — and s as a JSON string.
func (b bodyWriter) strField(key, s string) {
	b.buf.WriteString(key)
	b.str(s)
}

func (b bodyWriter) intField(key string, n int) {
	b.buf.WriteString(key)
	b.buf.Write(strconv.AppendInt(b.buf.AvailableBuffer(), int64(n), 10))
}

// score appends f exactly as encoding/json formats a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 up with a two-digit negative exponent
// shortened (e-07 → e-7). NaN and ±Inf are errors, as they are there.
func (b bodyWriter) score(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return errUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	p := strconv.AppendFloat(b.buf.AvailableBuffer(), f, format, -1, 64)
	if n := len(p); format == 'e' && n >= 4 && p[n-4] == 'e' && p[n-3] == '-' && p[n-2] == '0' {
		p[n-2] = p[n-1]
		p = p[:n-1]
	}
	b.buf.Write(p)
	return nil
}

// answers appends a JSON array of Answer objects: per answer, the rule's
// memoized fragment (rendered on the spot when frags does not hold it),
// then its score and the closing brace.
func (b bodyWriter) answers(frags *ruleFrags, answers []core.Answer) error {
	b.buf.WriteByte('[')
	for i, a := range answers {
		if i > 0 {
			b.buf.WriteByte(',')
		}
		if frag := frags.lookup(a.Sentence); frag != nil {
			b.buf.Write(frag)
		} else {
			appendRule(b.enc, b.buf, a.Sentence)
		}
		b.buf.WriteString(`,"score":`)
		if err := b.score(a.Score); err != nil {
			return err
		}
		b.buf.WriteByte('}')
	}
	b.buf.WriteByte(']')
	return nil
}

// query appends a QueryResponse whose answers are answers (r.Answers is not
// read).
func (b bodyWriter) query(frags *ruleFrags, r *QueryResponse, answers []core.Answer) error {
	b.strField(`{"advisor":`, r.Advisor)
	b.strField(`,"query":`, r.Query)
	if r.Backend != "" {
		b.strField(`,"backend":`, r.Backend)
	}
	b.intField(`,"count":`, r.Count)
	b.buf.WriteString(`,"answers":`)
	if err := b.answers(frags, answers); err != nil {
		return err
	}
	if r.ShardsFailed != 0 {
		b.intField(`,"shards_failed":`, r.ShardsFailed)
	}
	b.traceID(r.TraceID)
	return nil
}

// report appends a ReportResponse whose i-th issue's answers are
// answers[i] (the issues' Answers fields are not read).
func (b bodyWriter) report(frags *ruleFrags, r *ReportResponse, answers [][]core.Answer) error {
	b.strField(`{"advisor":`, r.Advisor)
	if r.Program != "" {
		b.strField(`,"program":`, r.Program)
	}
	b.buf.WriteString(`,"issues":`)
	if r.Issues == nil {
		b.buf.WriteString("null")
	} else {
		b.buf.WriteByte('[')
		for i := range r.Issues {
			is := &r.Issues[i]
			if i > 0 {
				b.buf.WriteByte(',')
			}
			b.strField(`{"title":`, is.Title)
			if is.Section != "" {
				b.strField(`,"section":`, is.Section)
			}
			b.intField(`,"count":`, is.Count)
			b.buf.WriteString(`,"answers":`)
			if err := b.answers(frags, answers[i]); err != nil {
				return err
			}
			b.buf.WriteByte('}')
		}
		b.buf.WriteByte(']')
	}
	b.traceID(r.TraceID)
	return nil
}

// batch appends a BatchResponse whose i-th result's answers are answers[i]
// (the results' Answers fields are not read); frags returns the fragment
// table of an item's advisor. r.Results is never nil: an empty batch is
// rejected before it is answered.
func (b bodyWriter) batch(frags func(advisor string) *ruleFrags, r *BatchResponse, answers [][]core.Answer) error {
	b.intField(`{"count":`, r.Count)
	b.intField(`,"errors":`, r.Errors)
	b.buf.WriteString(`,"results":[`)
	for i := range r.Results {
		it := &r.Results[i]
		if i > 0 {
			b.buf.WriteByte(',')
		}
		b.strField(`{"advisor":`, it.Advisor)
		b.strField(`,"query":`, it.Query)
		if it.Backend != "" {
			b.strField(`,"backend":`, it.Backend)
		}
		b.intField(`,"count":`, it.Count)
		if len(answers[i]) > 0 {
			b.buf.WriteString(`,"answers":`)
			if err := b.answers(frags(it.Advisor), answers[i]); err != nil {
				return err
			}
		}
		if it.Cache != "" {
			b.strField(`,"cache":`, it.Cache)
		}
		if it.Error != "" {
			b.strField(`,"error":`, it.Error)
		}
		if it.TraceID != "" {
			b.strField(`,"trace_id":`, it.TraceID)
		}
		b.buf.WriteByte('}')
	}
	b.buf.WriteByte(']')
	b.traceID(r.TraceID)
	return nil
}

// traceID closes a top-level body: the omitempty trace_id, the closing
// brace and the newline json.Encoder ends every value with.
func (b bodyWriter) traceID(id string) {
	if id != "" {
		b.strField(`,"trace_id":`, id)
	}
	b.buf.WriteString("}\n")
}

// writeRendered renders a body with render into a pooled buffer and writes
// it with its Content-Length. A render error (a NaN or infinite score) is
// the same 500 writeJSON gives for an unencodable value.
func writeRendered(w http.ResponseWriter, status int, render func(bodyWriter) error) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer putJSONBuf(buf)
	if err := render(bodyWriter{buf: buf, enc: newEncoder(buf)}); err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	writeBuffered(w, status, buf)
}
