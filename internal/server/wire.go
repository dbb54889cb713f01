package server

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The wire codec: every row, /match document and stream done line a request
// writes or a frontend reads on its happy path goes through this file.
//
// The encoders append into a caller-owned buffer and write byte for byte what
// encoding/json writes for the document types they replaced (the types live
// on in wire_test.go as the oracle, with a fuzz target holding the two
// together), so a client cannot tell which one served it. The parsers are the
// encoders' inverse and nothing more: they accept exactly the bytes an
// encoder can have written — key order, number spelling, row order, the
// trailing newline — and reject everything else, because the only thing a
// frontend parses is a worker's reply and a worker is a trust boundary.

// wireRow is a parsed report row; Score is meaningful only on a scored
// document or stream.
type wireRow struct {
	End, Pattern int
	Score        float64
}

// wireRowMax bounds an encoded row with its separator: two 20-byte integers,
// a 25-byte float, 29 bytes of keys and punctuation.
const wireRowMax = 96

// errWire is the one parse error: the input is not the codec's encoding of
// anything. Callers wrap it with what they were reading.
var errWire = errors.New("not the wire encoding")

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json quotes it: HTML-sensitive bytes,
// control bytes and U+2028/9 escaped, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendScore appends a finite float64 by encoding/json's rule (the ES6
// one): shortest digits that round-trip, exponent form below 1e-6 and from
// 1e21, and a negative exponent's leading zero dropped. Scores are finite by
// construction — a weight table is bounded by automata.ScoreLimit.
func appendScore(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendMatchRow appends one binary report row, without a separator.
func appendMatchRow(dst []byte, end, pattern int) []byte {
	dst = append(dst, `{"end":`...)
	dst = strconv.AppendInt(dst, int64(end), 10)
	dst = append(dst, `,"pattern":`...)
	dst = strconv.AppendInt(dst, int64(pattern), 10)
	return append(dst, '}')
}

// appendScoredRow appends one scored report row, without a separator.
func appendScoredRow(dst []byte, end, pattern int, score float64) []byte {
	dst = appendMatchRow(dst, end, pattern)
	dst = append(dst[:len(dst)-1], `,"score":`...)
	return append(appendScore(dst, score), '}')
}

// appendMatchHead opens a /match document up to and including the bracket
// of its row array; tenantJSON is the tenant name already quoted. The rows
// follow comma-separated, then appendMatchTail.
func appendMatchHead(dst, tenantJSON []byte, generation, nbytes int) []byte {
	dst = append(append(dst, `{"tenant":`...), tenantJSON...)
	dst = strconv.AppendInt(append(dst, `,"generation":`...), int64(generation), 10)
	dst = strconv.AppendInt(append(dst, `,"bytes":`...), int64(nbytes), 10)
	return append(dst, `,"matches":[`...)
}

// appendMatchTail closes a /match document.
func appendMatchTail(dst []byte, elapsedUS int64) []byte {
	dst = strconv.AppendInt(append(dst, `],"elapsed_us":`...), elapsedUS, 10)
	return append(dst, '}', '\n')
}

// appendStreamDone appends the final line of a /stream response.
func appendStreamDone(dst []byte, nbytes, matches int64) []byte {
	return append(appendDoneFields(dst, nbytes, matches), '}', '\n')
}

// appendClusterDone appends a frontend's final stream line: the
// single-process line when no leg failed, else flagged partial with the
// failed workers' (already quoted) names.
func appendClusterDone(dst []byte, nbytes, matches int64, failedJSON [][]byte) []byte {
	dst = appendDoneFields(dst, nbytes, matches)
	if len(failedJSON) > 0 {
		dst = append(dst, `,"partial":true,"failed_workers":`...)
		sep := byte('[')
		for _, name := range failedJSON {
			dst = append(append(dst, sep), name...)
			sep = ','
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

func appendDoneFields(dst []byte, nbytes, matches int64) []byte {
	dst = strconv.AppendInt(append(dst, `{"done":true,"bytes":`...), nbytes, 10)
	return strconv.AppendInt(append(dst, `,"matches":`...), matches, 10)
}

// rowRun is one sorted run of a k-way merge: a worker's rows and their kind.
type rowRun struct {
	rows   []wireRow
	scored bool
}

// appendMergedRows appends the union of the runs — each strictly ascending
// in (end, pattern), as parseMatchDoc guarantees — comma-separated in the
// same canonical order, and returns the number of rows written. Shard
// subsets are disjoint, so a duplicate appears only when one (end, pattern)
// fires on patterns split across workers — what a single process folds into
// one row with the best score, so the merge takes the duplicates best score
// first and keeps that one. The runs are consumed.
func appendMergedRows(dst []byte, runs []rowRun) ([]byte, int) {
	n := 0
	var last wireRow
	for {
		best := -1
		for i := range runs {
			if len(runs[i].rows) == 0 {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			r, b := runs[i].rows[0], runs[best].rows[0]
			if rowLess(r, b) || !rowLess(b, r) && r.Score > b.Score {
				best = i
			}
		}
		if best < 0 {
			return dst, n
		}
		row := runs[best].rows[0]
		runs[best].rows = runs[best].rows[1:]
		if n > 0 && !rowLess(last, row) {
			continue
		}
		if n > 0 {
			dst = append(dst, ',')
		}
		if runs[best].scored {
			dst = appendScoredRow(dst, row.End, row.Pattern, row.Score)
		} else {
			dst = appendMatchRow(dst, row.End, row.Pattern)
		}
		last = row
		n++
	}
}

// rowLess is the serving boundary's canonical row order: (end, pattern)
// ascending. The single-process /match handler and the frontend's merge both
// emit it, so a client cannot tell a frontend fanning out to workers from
// one process hosting every shard.
func rowLess(a, b wireRow) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	return a.Pattern < b.Pattern
}

// wireReader is a cursor over encoded bytes with a sticky failure: every
// step is a no-op once one has failed, so a parser reads as the grammar it
// accepts and checks bad once.
type wireReader struct {
	b   []byte
	bad bool
}

// lit consumes exactly s.
func (r *wireReader) lit(s string) {
	if r.bad || len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		r.bad = true
		return
	}
	r.b = r.b[len(s):]
}

// token consumes the longest prefix made of bytes in set, at most max long.
func (r *wireReader) token(set string, max int) []byte {
	n := 0
	for n < len(r.b) && n <= max && strings.IndexByte(set, r.b[n]) >= 0 {
		n++
	}
	if r.bad || n == 0 || n > max {
		r.bad = true
		return nil
	}
	tok := r.b[:n]
	r.b = r.b[n:]
	return tok
}

// int consumes an integer as strconv.AppendInt spells it: no plus sign, no
// leading zero, no negative zero, inside int64.
func (r *wireReader) int() int64 {
	tok := r.token("-0123456789", 20)
	v, err := strconv.ParseInt(string(tok), 10, 64)
	var canon [20]byte
	if err != nil || !bytes.Equal(strconv.AppendInt(canon[:0], v, 10), tok) {
		r.bad = true
	}
	return v
}

// float consumes a number spelled exactly as appendScore spells its value.
func (r *wireReader) float() float64 {
	tok := r.token("-+.e0123456789", 25)
	f, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	if err != nil || math.IsInf(f, 0) || !bytes.Equal(appendScore(canon[:0], f), tok) {
		r.bad = true
	}
	return f
}

// row consumes one report row. *scored is the kind the enclosing document or
// stream holds; its first row decides it.
func (r *wireReader) row(scored *bool, first bool) wireRow {
	var row wireRow
	r.lit(`{"end":`)
	row.End = int(r.int())
	r.lit(`,"pattern":`)
	row.Pattern = int(r.int())
	if first {
		*scored = len(r.b) > 0 && r.b[0] == ','
	}
	if *scored {
		r.lit(`,"score":`)
		row.Score = r.float()
	}
	r.lit(`}`)
	return row
}

// matchDoc is a parsed /match document.
type matchDoc struct {
	rowRun
	generation, bytes int
	elapsedUS         int64
}

// parseMatchDoc parses a worker's /match reply for the tenant whose quoted
// name is tenantJSON, appending the rows to rows[:0]. Rows must be of one
// kind and strictly ascending in (end, pattern) — the order Machine.Match
// returns them in, and appendMergedRows relies on. It allocates nothing but
// the row slice, when rows is too small, sized from the reply.
func parseMatchDoc(b, tenantJSON []byte, rows []wireRow) (matchDoc, error) {
	var doc matchDoc
	r := wireReader{b: b}
	r.lit(`{"tenant":`)
	if !bytes.HasPrefix(r.b, tenantJSON) {
		return doc, errWire
	}
	r.b = r.b[len(tenantJSON):]
	r.lit(`,"generation":`)
	doc.generation = int(r.int())
	r.lit(`,"bytes":`)
	doc.bytes = int(r.int())
	r.lit(`,"matches":[`)
	// Every row opens with a brace and nothing after the rows holds one, so
	// the count is exact for an encoder's output; an input with more braces
	// than it has room for rows is refused before anything is allocated.
	n := bytes.Count(r.b, []byte("{"))
	if r.bad || n > len(r.b)/len(`{"end":0,"pattern":0}`) {
		return doc, errWire
	}
	if rows = rows[:0]; cap(rows) < n {
		rows = make([]wireRow, 0, n)
	}
	for i := 0; i < n && !r.bad; i++ {
		if i > 0 {
			r.lit(`,`)
		}
		row := r.row(&doc.scored, i == 0)
		if i > 0 && !rowLess(rows[i-1], row) {
			return doc, errWire
		}
		rows = append(rows, row)
	}
	r.lit(`],"elapsed_us":`)
	doc.elapsedUS = r.int()
	r.lit("}\n")
	if r.bad || len(r.b) != 0 {
		return doc, errWire
	}
	doc.rows = rows
	return doc, nil
}

// streamParser validates a worker's NDJSON stream as it arrives: report rows
// of one kind, then the done line, whose row count must be the number of
// rows that came before it.
type streamParser struct {
	rows   int64 // report rows accepted so far
	scored bool
	done   bool
	// bytes and matches are the done line's fields, once done.
	bytes, matches int64
}

// feed validates the complete lines at the head of b. relay is the length of
// the prefix that is report rows — what a frontend passes on to its client —
// and n what was consumed (relay plus the done line, if it arrived); the
// caller keeps b[n:], an incomplete line, for the next call. Anything after
// the done line is an error.
func (p *streamParser) feed(b []byte) (relay, n int, err error) {
	for !p.done {
		eol := bytes.IndexByte(b[n:], '\n')
		if eol < 0 {
			return relay, n, nil
		}
		r := wireReader{b: b[n : n+eol]}
		if bytes.HasPrefix(r.b, []byte(`{"done"`)) {
			r.lit(`{"done":true,"bytes":`)
			p.bytes = r.int()
			r.lit(`,"matches":`)
			p.matches = r.int()
			r.lit(`}`)
			p.done = true
		} else {
			r.row(&p.scored, p.rows == 0)
			p.rows++
		}
		if r.bad || len(r.b) != 0 || p.done && p.matches != p.rows {
			return relay, n, errWire
		}
		n += eol + 1
		if !p.done {
			relay = n
		}
	}
	if n != len(b) {
		return relay, n, errWire
	}
	return relay, n, nil
}
