package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"hygraph/benchmark/mark"
)

// oracle turns ops into requests and checks the answers against the model.
// ids maps a dataset station index to the id the server assigned at ingest.
type oracle struct {
	m   *mark.Model
	ids []uint32
	idx map[string]int // server id, as the wire spells map keys → index
}

func newOracle(m *mark.Model, ids []uint32) *oracle {
	o := &oracle{m: m, ids: ids, idx: make(map[string]int, len(ids))}
	for i, id := range ids {
		o.idx[strconv.FormatUint(uint64(id), 10)] = i
	}
	return o
}

// prefixes bounds what the server may have held while it answered: station st
// had at least lo[st] and at most hi[st] samples. With no writer, lo == hi.
type prefixes struct{ lo, hi []int }

// any reports whether ok holds at some prefix of station st's samples.
func (p prefixes) any(st int, ok func(n int) bool) bool {
	for n := p.lo[st]; n <= p.hi[st]; n++ {
		if ok(n) {
			return true
		}
	}
	return false
}

// check compares a query's raw result with the model. The all-station folds
// Q5, Q6 and the two-station Q7 are only issued where nothing is written, so
// they are checked at the lower prefix alone.
func (o *oracle) check(op mark.Op, raw json.RawMessage, p prefixes) error {
	m := o.m
	bad := func(got any) error { return fmt.Errorf("wrong answer to %+v: got %.300s", op, fmt.Sprint(got)) }
	switch op.Class {
	case "Q1", "Q2", "downsample":
		var got []mark.Point
		if err := json.Unmarshal(raw, &got); err != nil {
			return bad(string(raw))
		}
		ok := p.any(op.St, func(n int) bool {
			switch op.Class {
			case "Q1":
				return mark.ClosePoints(got, m.Range(op.St, n, op.Start, op.End))
			case "Q2":
				return mark.ClosePoints(got, m.Below(op.St, n, op.Start, op.End, op.Below))
			}
			return mark.ClosePoints(got, m.Downsample(op.St, n, op.Start, op.End, op.Bucket))
		})
		if !ok {
			return bad(got)
		}
	case "Q3", "Q7":
		var got float64
		if err := json.Unmarshal(raw, &got); err != nil {
			return bad(string(raw))
		}
		ok := false
		if op.Class == "Q3" {
			ok = p.any(op.St, func(n int) bool { return mark.Close(got, m.Mean(op.St, n, op.Start, op.End)) })
		} else {
			ok = mark.Close(got, m.Corr(op.St, p.lo[op.St], op.Other, p.lo[op.Other], op.Start, op.End, op.Bucket))
		}
		if !ok {
			return bad(got)
		}
	case "Q4", "Q8":
		var got map[string]float64
		if err := json.Unmarshal(raw, &got); err != nil {
			return bad(string(raw))
		}
		want := len(m.Vals)
		if op.Class == "Q8" {
			want = len(m.Adj[op.St])
		}
		if len(got) != want {
			return bad(got)
		}
		for id, v := range got {
			st, known := o.idx[id]
			if !known || !p.any(st, func(n int) bool { return mark.Close(v, m.Mean(st, n, op.Start, op.End)) }) {
				return bad(got)
			}
		}
		if op.Class == "Q8" {
			for _, st := range m.Adj[op.St] {
				if _, ok := got[strconv.FormatUint(uint64(o.ids[st]), 10)]; !ok {
					return bad(got)
				}
			}
		}
	case "Q5":
		var got map[string]float64
		if err := json.Unmarshal(raw, &got); err != nil {
			return bad(string(raw))
		}
		want := m.DistrictSums(p.lo, op.Start, op.End)
		if len(got) != len(want) {
			return bad(got)
		}
		for d, v := range want {
			if g, ok := got[d]; !ok || !mark.Close(g, v) {
				return bad(got)
			}
		}
	case "Q6":
		var got []uint32
		if err := json.Unmarshal(raw, &got); err != nil {
			return bad(string(raw))
		}
		want := m.TopK(p.lo, op.Start, op.End, op.K)
		if len(got) != len(want) {
			return bad(got)
		}
		for i, st := range want {
			if got[i] != o.ids[st] {
				return bad(got)
			}
		}
	default:
		return fmt.Errorf("no check for op class %q", op.Class)
	}
	return nil
}

// checkHyQL compares a HyQL form's rows with the model at exactly lens: the
// hyql_live client is alone, so there is no prefix to search.
func (o *oracle) checkHyQL(class string, st int, start, end int64, rows [][]string, lens []int) error {
	m := o.m
	bad := func() error {
		return fmt.Errorf("wrong answer to %s(station %d, %d, %d): got %.300s", class, st, start, end, fmt.Sprint(rows))
	}
	cell := func(row []string, i int) (float64, bool) {
		if i >= len(row) {
			return 0, false
		}
		v, err := strconv.ParseFloat(row[i], 64)
		return v, err == nil
	}
	switch class {
	case "H1":
		if len(rows) != 1 {
			return bad()
		}
		if v, ok := cell(rows[0], 0); !ok || !mark.Close(v, m.Mean(st, lens[st], start, end)) {
			return bad()
		}
	case "H2":
		want := m.DistrictSums(lens, start, end)
		if len(rows) != len(want) {
			return bad()
		}
		for _, row := range rows {
			v, ok := cell(row, 1)
			if w, known := want[row[0]]; !ok || !known || !mark.Close(v, w) {
				return bad()
			}
		}
	case "H3":
		// ORDER BY m DESC, name: names are zero-padded, so name order is
		// index order, the model's tie-break.
		want := m.TopK(lens, start, end, 10)
		if len(rows) != len(want) {
			return bad()
		}
		for i, w := range want {
			if v, ok := cell(rows[i], 1); !ok || rows[i][0] != m.Names[w] || !mark.Close(v, m.Mean(w, lens[w], start, end)) {
				return bad()
			}
		}
	case "H4":
		adj := m.Adj[st]
		if len(rows) != len(adj) {
			return bad()
		}
		got := map[string]float64{}
		for _, row := range rows {
			v, ok := cell(row, 1)
			if !ok {
				return bad()
			}
			got[row[0]] = v
		}
		for _, n := range adj {
			if v, ok := got[m.Names[n]]; !ok || !mark.Close(v, m.Mean(n, lens[n], start, end)) {
				return bad()
			}
		}
	}
	return nil
}
