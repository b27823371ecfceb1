// Package hyql implements HyQL, a Cypher-subset declarative query language
// over HyGraph instances with time-series functions in expressions — the
// unified language the paper's requirement R1 calls for: one query can
// constrain graph structure and series behaviour at once.
//
// Supported surface:
//
//	MATCH (u:User)-[t:TX]->(m:Merchant), (u)-[:USES]->(c:CreditCard)
//	WHERE t.amount > 1000 AND ts.mean(c, 0, 100) < 500
//	RETURN u.name AS user, count(m) AS merchants, collect(m.name)
//	ORDER BY merchants DESC
//	LIMIT 10
//
// Pattern edges may be directed (->, <-) or undirected (-), and may carry
// variable-length bounds ([*1..3]). Aggregations in RETURN group implicitly
// by the non-aggregated items, like Cypher. The ts.* namespace exposes the
// time-series engine over TS vertices/edges bound in the pattern: ts.mean,
// ts.sum, ts.min, ts.max, ts.count, ts.std, ts.first, ts.last, ts.slope,
// ts.corr, ts.anomalies, ts.resample.
package hyql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokKeyword
	tokSymbol
)

// token is one lexical token with its source position (for error messages).
type token struct {
	kind tokKind
	text string // keywords are upper-cased, symbols literal
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = []string{
	"MATCH", "WHERE", "RETURN", "ORDER", "BY", "LIMIT", "AS", "AND", "OR",
	"NOT", "WITH", "TRUE", "FALSE", "NULL", "ASC", "DESC", "DISTINCT",
}

// multi-character symbols, longest first.
var symbols = []string{"<=", ">=", "<>", "!=", "->", "<-", "..", "(", ")",
	"[", "]", "{", "}", "-", ">", "<", "=", ",", ":", ".", "*", "+", "/", "%", "|"}

// lex tokenizes a query. Errors carry the offending position.
func lex(src string) ([]token, error) {
	out := make([]token, 0, len(src)/3+2)
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			end := strings.IndexByte(src[i+1:], c)
			if end >= 0 && strings.IndexByte(src[i+1:i+1+end], '\\') < 0 {
				// No escape before the closing quote: the literal is the source.
				out = append(out, token{tokString, src[i+1 : i+1+end], i})
				i += end + 2
				break
			}
			j := i + 1
			var sb strings.Builder
			for j < n && src[j] != c {
				if src[j] == '\\' && j+1 < n {
					j++
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("hyql: unterminated string at offset %d", i)
			}
			out = append(out, token{tokString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			seenDot := false
			for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' && !seenDot) {
				if src[j] == '.' {
					// ".." is the range symbol, not a decimal point.
					if j+1 < n && src[j+1] == '.' {
						break
					}
					seenDot = true
				}
				j++
			}
			out = append(out, token{tokNumber, src[i:j], i})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(src[j])) {
				j++
			}
			// EqualFold's non-ASCII folds (Kelvin sign, long s) need bytes no word holds.
			tok := token{tokIdent, src[i:j], i}
			for _, kw := range keywords {
				if len(kw) == len(tok.text) && strings.EqualFold(tok.text, kw) {
					tok = token{tokKeyword, kw, i}
					break
				}
			}
			out = append(out, tok)
			i = j
		default:
			matched := false
			for _, s := range symbols {
				if strings.HasPrefix(src[i:], s) {
					out = append(out, token{tokSymbol, s, i})
					i += len(s)
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("hyql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	out = append(out, token{tokEOF, "", n})
	return out, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
