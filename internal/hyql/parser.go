package hyql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a HyQL query string.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected %s after end of query", p.peek())
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("hyql: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// at reports whether the current token has the kind and (optionally) text.
func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// eat consumes the current token when it matches.
func (p *parser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if !p.eat(kind, text) {
		return p.errf("expected %q, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if err := p.expect(tokKeyword, "MATCH"); err != nil {
		return nil, err
	}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, pat)
		if !p.eat(tokSymbol, ",") {
			break
		}
	}
	if p.eat(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.eat(tokKeyword, "WITH") {
		for {
			item, err := p.parseReturnItem()
			if err != nil {
				return nil, err
			}
			if item.Alias == "" {
				if _, ok := item.Expr.(Ident); !ok {
					return nil, p.errf("WITH item %q needs an alias (AS name)", ExprText(item.Expr))
				}
			}
			q.With = append(q.With, item)
			if !p.eat(tokSymbol, ",") {
				break
			}
		}
		if p.eat(tokKeyword, "WHERE") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.WithWhere = e
		}
	}
	if err := p.expect(tokKeyword, "RETURN"); err != nil {
		return nil, err
	}
	q.Distinct = p.eat(tokKeyword, "DISTINCT")
	for {
		item, err := p.parseReturnItem()
		if err != nil {
			return nil, err
		}
		q.Return = append(q.Return, item)
		if !p.eat(tokSymbol, ",") {
			break
		}
	}
	if p.eat(tokKeyword, "ORDER") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.eat(tokKeyword, "DESC") {
				it.Desc = true
			} else {
				p.eat(tokKeyword, "ASC")
			}
			q.OrderBy = append(q.OrderBy, it)
			if !p.eat(tokSymbol, ",") {
				break
			}
		}
	}
	if p.eat(tokKeyword, "LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("LIMIT expects a number, found %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		p.next()
		q.Limit = n
	}
	return q, nil
}

// maxVarHops is both the upper bound of a bare `*` and the largest explicit
// hop bound a query may ask for: trail enumeration grows exponentially with
// it and runs without a context, so the parser is what keeps a served
// variable-length match finite.
const maxVarHops = 8

// parseHops consumes one variable-length hop bound: an integer in
// [0, maxVarHops].
func (p *parser) parseHops() (int, error) {
	t := p.peek()
	v, err := strconv.Atoi(t.text)
	if err != nil || v < 0 || v > maxVarHops {
		return 0, p.errf("hop bound %q is not an integer in [0, %d]", t.text, maxVarHops)
	}
	p.next()
	return v, nil
}

// parsePattern parses "(a:L)-[e:T]->(b)...".
func (p *parser) parsePattern() (*PatternPath, error) {
	pat := &PatternPath{}
	node, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	pat.Nodes = append(pat.Nodes, node)
	for {
		dirLeft := false
		switch {
		case p.eat(tokSymbol, "<-"):
			dirLeft = true
		case p.eat(tokSymbol, "-"):
		default:
			return pat, nil
		}
		edge := EdgePattern{MinHops: 1, MaxHops: 1}
		if p.eat(tokSymbol, "[") {
			if p.at(tokIdent, "") {
				edge.Name = p.next().text
			}
			if p.eat(tokSymbol, ":") {
				if !p.at(tokIdent, "") {
					return nil, p.errf("expected edge label, found %s", p.peek())
				}
				edge.Label = p.next().text
			}
			if p.eat(tokSymbol, "*") {
				// *min..max, *..max, *min.., or bare *
				edge.MinHops, edge.MaxHops = 1, maxVarHops
				if p.at(tokNumber, "") {
					v, err := p.parseHops()
					if err != nil {
						return nil, err
					}
					edge.MinHops, edge.MaxHops = v, v
				}
				if p.eat(tokSymbol, "..") {
					edge.MaxHops = maxVarHops
					if p.at(tokNumber, "") {
						v, err := p.parseHops()
						if err != nil {
							return nil, err
						}
						edge.MaxHops = v
					}
				}
				if edge.MinHops > edge.MaxHops {
					return nil, p.errf("empty hop range *%d..%d", edge.MinHops, edge.MaxHops)
				}
			}
			if err := p.expect(tokSymbol, "]"); err != nil {
				return nil, err
			}
		}
		switch {
		case dirLeft:
			edge.Dir = DirLeft
			if err := p.expect(tokSymbol, "-"); err != nil {
				return nil, err
			}
		case p.eat(tokSymbol, "->"):
			edge.Dir = DirRight
		case p.eat(tokSymbol, "-"):
			edge.Dir = DirBoth
		default:
			return nil, p.errf("expected '->' or '-' after edge, found %s", p.peek())
		}
		node, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		pat.Edges = append(pat.Edges, edge)
		pat.Nodes = append(pat.Nodes, node)
	}
}

func (p *parser) parseNode() (NodePattern, error) {
	var n NodePattern
	if err := p.expect(tokSymbol, "("); err != nil {
		return n, err
	}
	if p.at(tokIdent, "") {
		n.Name = p.next().text
	}
	if p.eat(tokSymbol, ":") {
		if !p.at(tokIdent, "") {
			return n, p.errf("expected label, found %s", p.peek())
		}
		n.Label = p.next().text
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return n, err
	}
	return n, nil
}

func (p *parser) parseReturnItem() (ReturnItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return ReturnItem{}, err
	}
	item := ReturnItem{Expr: e}
	if p.eat(tokKeyword, "AS") {
		if !p.at(tokIdent, "") {
			return item, p.errf("expected alias, found %s", p.peek())
		}
		item.Alias = p.next().text
	}
	return item, nil
}

// Expression grammar (precedence climbing):
//   or   := and (OR and)*
//   and  := not (AND not)*
//   not  := NOT not | cmp
//   cmp  := add ((= | <> | != | < | <= | > | >=) add)?
//   add  := mul ((+|-) mul)*
//   mul  := unary ((*|/|%) unary)*
//   unary:= - unary | primary
//   primary := literal | call | ident(.prop)? | ( expr )

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eat(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{"OR", l, r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eat(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Binary{"AND", l, r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.eat(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Unary{"NOT", x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.eat(tokSymbol, op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return Binary{op, l, r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eat(tokSymbol, "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Binary{"+", l, r}
		case p.eat(tokSymbol, "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Binary{"-", l, r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.eat(tokSymbol, "*"):
			op = "*"
		case p.eat(tokSymbol, "/"):
			op = "/"
		case p.eat(tokSymbol, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Binary{op, l, r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.eat(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{"-", x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return Lit{Num: &f}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return Lit{Int: &i}, nil
	case tokString:
		p.next()
		s := t.text
		return Lit{Str: &s}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE", "FALSE":
			p.next()
			b := t.text == "TRUE"
			return Lit{Bool: &b}, nil
		case "NULL":
			p.next()
			return Lit{IsNull: true}, nil
		}
		return nil, p.errf("unexpected keyword %s in expression", t)
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %s in expression", t)
	case tokIdent:
		p.next()
		name := t.text
		// namespace.call or binding.prop or bare call or bare binding.
		if p.eat(tokSymbol, ".") {
			if !p.at(tokIdent, "") {
				return nil, p.errf("expected identifier after '.', found %s", p.peek())
			}
			second := p.next().text
			if p.at(tokSymbol, "(") {
				return p.parseCallArgs(name, strings.ToLower(second))
			}
			return PropAccess{On: name, Key: second}, nil
		}
		if p.at(tokSymbol, "(") {
			return p.parseCallArgs("", strings.ToLower(name))
		}
		return Ident{Name: name}, nil
	}
	return nil, p.errf("unexpected %s", t)
}

func (p *parser) parseCallArgs(ns, name string) (Expr, error) {
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	call := Call{Namespace: ns, Name: name}
	if p.eat(tokSymbol, "*") {
		call.Star = true
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.eat(tokSymbol, ")") {
		return call, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, a)
		if !p.eat(tokSymbol, ",") {
			break
		}
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return call, nil
}
