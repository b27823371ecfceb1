package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// pointJSON is one (t, v) sample on the wire.
type pointJSON struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

type stationReq struct {
	Name     string      `json:"name"`
	District string      `json:"district"`
	Points   []pointJSON `json:"points"`
}

// series builds the station's availability series; a repeated timestamp
// keeps its last value.
func (req stationReq) series() *ts.Series {
	s := ts.New(ttdb.Metric)
	for _, p := range req.Points {
		s.Upsert(ts.Time(p.T), p.V)
	}
	return s
}

// readBody reads a whole request body under the maxBody cap into one buffer
// presized from Content-Length. A body over the cap is an error even when a
// JSON value inside it ends earlier.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= maxBody {
		// ReadFrom grows a buffer with less than MinRead bytes free, even
		// for the read that only reports io.EOF.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBody))
	return buf.Bytes(), err
}

// parseStation decodes a station body, {"name", "district", "points":
// [{"t", "v"}]}, in one pass and without reflection. It accepts exactly what
// a json.Decoder with DisallowUnknownFields accepts into stationReq, and
// yields the same request bit for bit (FuzzStationBody holds it to that):
//   - a top-level null is the empty request, and bytes after the top-level
//     value are never read;
//   - keys match case-insensitively under Unicode folding (bytes.EqualFold),
//     and a repeated key overwrites;
//   - a null value leaves its field as it was, so a null or {} element is
//     the point (0, 0);
//   - a repeated "points" decodes element i into whatever the slice's
//     backing array holds at i: the earlier arrays' element when one was
//     ever that long, else a zero point. Only [] and null start afresh.
func parseStation(b []byte) (stationReq, error) {
	p := bodyParser{b: b}
	var req stationReq
	p.space()
	if p.null() {
		return req, nil
	}
	if err := p.open('{'); err != nil {
		return req, err
	}
	// pts holds every element written since points last started afresh;
	// the request's points are its first n.
	var pts []pointJSON
	n := 0
	for more := !p.close('}'); more; {
		key, err := p.key()
		if err != nil {
			return req, err
		}
		switch {
		case bytes.EqualFold(key, []byte("name")):
			err = p.stringValue(&req.Name)
		case bytes.EqualFold(key, []byte("district")):
			err = p.stringValue(&req.District)
		case bytes.EqualFold(key, []byte("points")):
			if pts == nil {
				// A point as clients send it, {"t":<ms epoch>,"v":…}, takes
				// at least 24 bytes: the slice is allocated once.
				pts = make([]pointJSON, 0, len(b)/24)
			}
			pts, n, err = p.points(pts)
		default:
			err = fmt.Errorf("json: unknown field %q", key)
		}
		if err != nil {
			return req, err
		}
		if more, err = p.next('}'); err != nil {
			return req, err
		}
	}
	if n > 0 {
		req.Points = pts[:n]
	}
	return req, nil
}

// bodyParser is a cursor over a request body.
type bodyParser struct {
	b []byte
	i int
}

var errBodyEnd = errors.New("unexpected end of JSON input")

func (p *bodyParser) fail(what string) error {
	if p.i >= len(p.b) {
		return errBodyEnd
	}
	return fmt.Errorf("%s: invalid character %q at offset %d", what, p.b[p.i], p.i)
}

// space skips JSON whitespace.
func (p *bodyParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// null consumes the literal null. Whatever follows is the caller's to check.
func (p *bodyParser) null() bool {
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += 4
		return true
	}
	return false
}

// open consumes the opening delimiter c and the whitespace after it.
func (p *bodyParser) open(c byte) error {
	if p.i >= len(p.b) || p.b[p.i] != c {
		return p.fail("looking for the beginning of a value")
	}
	p.i++
	p.space()
	return nil
}

// close consumes the closing delimiter c of an empty object or array.
func (p *bodyParser) close(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// next consumes what follows a member or element: whitespace, then a comma
// and whitespace (more is true) or the closing delimiter c.
func (p *bodyParser) next(c byte) (more bool, err error) {
	p.space()
	switch {
	case p.i >= len(p.b):
		return false, errBodyEnd
	case p.b[p.i] == ',':
		p.i++
		p.space()
		return true, nil
	case p.b[p.i] == c:
		p.i++
		return false, nil
	}
	return false, p.fail("after a value")
}

// key reads an object key and the colon after it.
func (p *bodyParser) key() ([]byte, error) {
	k, err := p.str()
	if err != nil {
		return nil, err
	}
	p.space()
	if p.i >= len(p.b) || p.b[p.i] != ':' {
		return nil, p.fail("after an object key")
	}
	p.i++
	p.space()
	return k, nil
}

// str reads a string token and returns its unquoted bytes. Plain ASCII is
// returned in place; a token with an escape or a non-ASCII byte goes through
// json.Unmarshal, so escapes and invalid UTF-8 unquote as encoding/json
// unquotes them.
func (p *bodyParser) str() ([]byte, error) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, p.fail("looking for the beginning of a string")
	}
	start := p.i
	plain := true
	for i := start + 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			p.i = i + 1
			if plain {
				return p.b[start+1 : i], nil
			}
			var s string
			if err := json.Unmarshal(p.b[start:p.i], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			i++ // the escaped byte; json.Unmarshal checks the escape
		case c < 0x20:
			p.i = i
			return nil, p.fail("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, errBodyEnd
}

// stringValue reads a string into dst; null leaves dst as it is.
func (p *bodyParser) stringValue(dst *string) error {
	if p.null() {
		return nil
	}
	s, err := p.str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// number reads a number token, checked against the JSON grammar.
func (p *bodyParser) number() ([]byte, error) {
	b, i := p.b, p.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		p.i = i
		return nil, p.fail("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			p.i = i
			return nil, p.fail("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			p.i = i
			return nil, p.fail("in exponent of numeric literal")
		}
	}
	tok := b[p.i:i]
	p.i = i
	return tok, nil
}

// points reads the value of a "points" key. pts holds every element written
// since points last started afresh; it returns them, grown by any element
// this array adds, and this array's length.
func (p *bodyParser) points(pts []pointJSON) ([]pointJSON, int, error) {
	if p.null() {
		return pts[:0], 0, nil
	}
	if err := p.open('['); err != nil {
		return pts, 0, err
	}
	if p.close(']') {
		return pts[:0], 0, nil
	}
	for i := 0; ; i++ {
		if i == len(pts) {
			pts = append(pts, pointJSON{})
		}
		if !p.null() {
			if err := p.open('{'); err != nil {
				return pts, 0, err
			}
			if err := p.point(&pts[i]); err != nil {
				return pts, 0, err
			}
		}
		more, err := p.next(']')
		if err != nil {
			return pts, 0, err
		}
		if !more {
			return pts, i + 1, nil
		}
	}
}

// point reads the members of one element after its opening brace into pt;
// a key absent or null leaves its field as it was.
func (p *bodyParser) point(pt *pointJSON) error {
	for more := !p.close('}'); more; {
		key, err := p.key()
		if err != nil {
			return err
		}
		isT := bytes.EqualFold(key, []byte("t"))
		if !isT && !bytes.EqualFold(key, []byte("v")) {
			return fmt.Errorf("json: unknown field %q", key)
		}
		if !p.null() {
			tok, err := p.number()
			if err != nil {
				return err
			}
			if isT {
				if pt.T, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
					return fmt.Errorf("json: point t %s is not an int64", tok)
				}
			} else if pt.V, err = strconv.ParseFloat(string(tok), 64); err != nil {
				return fmt.Errorf("json: point v %s overflows float64", tok)
			}
		}
		if more, err = p.next('}'); err != nil {
			return err
		}
	}
	return nil
}
