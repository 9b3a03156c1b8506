package service

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/ftspanner/ftspanner/internal/core"
)

// Spanner answers are written by appending bytes, not through
// encoding/json: a job's answer tail once per result, a session's whole
// answer on every read, straight from the published snapshot. The
// appenders below write, byte for byte, what encoding/json writes for the
// same values with its defaults (HTML escaping on), so the answers are the
// ones json.NewEncoder writes for the spannerResponse and
// sessionSpannerResponse shapes the tests keep.

const hexDigits = "0123456789abcdef"

// appendJSONText appends s as a JSON string, quoted and escaped as
// encoding/json escapes a string: '"' and '\\' by a backslash, control
// bytes by their short escape or \u00XX, '<', '>' and '&' as \u00XX,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendJSONText[T string | []byte](buf []byte, s T) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most utf8.UTFMax bytes are converted, so the string stays on
		// the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONFloat appends the finite float64 f as encoding/json writes it:
// the shortest digits that round-trip, in 'f' form, or in 'e' form below
// 1e-6 and from 1e21 up with a one-digit negative exponent's leading zero
// dropped (1e-07 is written 1e-7).
func appendJSONFloat(buf []byte, f float64) []byte {
	// An integral weight in (0, 1e6) is written as its plain decimal
	// digits, so AppendInt writes the same bytes faster, as it does for a
	// graph's edge lines.
	if f > 0 && f < 1e6 && f == math.Trunc(f) {
		return strconv.AppendInt(buf, int64(f), 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// appendQuotedFrom quotes buf[start:] in place as a JSON string: the text
// is quoted after itself, then moved down over it.
func appendQuotedFrom(buf []byte, start int) []byte {
	text := buf[start:len(buf):len(buf)] // appends below never write into it
	buf = appendJSONText(buf, text)
	return buf[:start+copy(buf[start:], buf[start+len(text):])]
}

// answerBufs recycles session answer buffers, as encoding/json recycles its
// encode buffers: an answer is written to the client and then dropped.
var answerBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// maxPooledAnswer bounds the buffers answerBufs keeps, so one huge
// session's read does not pin a buffer of its size.
const maxPooledAnswer = 1 << 20

// writeSessionAnswer answers GET /v1/sessions/{id}/spanner for session id
// at snap.
func writeSessionAnswer(w http.ResponseWriter, id string, snap *core.Snapshot) {
	bp := answerBufs.Get().(*[]byte)
	answer := appendSessionAnswer((*bp)[:0], id, snap)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(answer)
	if cap(answer) <= maxPooledAnswer {
		*bp = answer
		answerBufs.Put(bp)
	}
}

// appendSessionAnswer appends the GET /v1/sessions/{id}/spanner answer for
// session id at snap:
// {"id":...,"digest":...,"spanner":"<text>","kept":[{"u":...,"v":...,"w":...},...]}
// and a newline. The spanner text is the snapshot's Graph.Encode form and
// kept lists the same edges by endpoints and weight in scan order.
func appendSessionAnswer(buf []byte, id string, snap *core.Snapshot) []byte {
	buf = append(buf, `{"id":`...)
	buf = appendJSONText(buf, id)
	buf = append(buf, `,"digest":`...)
	buf = appendJSONText(buf, snap.Digest)
	buf = append(buf, `,"spanner":`...)
	start := len(buf)
	buf = appendQuotedFrom(snap.AppendSpanner(buf), start)
	buf = append(buf, `,"kept":[`...)
	for i, e := range snap.Kept {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"u":`...)
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, `,"w":`...)
		buf = appendJSONFloat(buf, e.Weight)
		buf = append(buf, '}')
	}
	return append(buf, "]}\n"...)
}

// appendJobAnswerTail appends a job spanner answer after its ID:
// `,"spanner":"<text>","kept":[<ids>]}` and a newline, for the spanner
// whose Graph.Encode text is text and whose kept input edge IDs are kept.
func appendJobAnswerTail(buf, text []byte, kept []int) []byte {
	buf = append(buf, `,"spanner":`...)
	buf = appendJSONText(buf, text)
	buf = append(buf, `,"kept":[`...)
	for i, id := range kept {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return append(buf, "]}\n"...)
}
