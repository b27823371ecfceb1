// Streaming: requirement R3 live. Observations, a late correction and
// structural changes stream into a HyGraph instance while a continuous HyQL
// query re-evaluates on tumbling windows — an online version of the fraud
// watchlist: "users whose card balance collapsed". The drained card is
// revoked mid-stream and its user linked to a replacement card, and the
// alerts stop with the revocation. The ingestion layer lives in stream.go.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hygraph/internal/core"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

func main() {
	h := core.New()
	rng := rand.New(rand.NewSource(1))

	// Three users with cards; card-2 will be drained mid-stream. card-3 is
	// issued up front but linked to nobody until it replaces card-2.
	var users, cards []core.VID
	var uses []core.EID
	for i := 0; i < 4; i++ {
		seed := ts.New("balance")
		seed.MustAppend(0, 1000)
		c, err := h.AddTSVertexUni(seed, "CreditCard")
		check(err)
		check(h.SetVertexProp(c, "name", lpg.Str(fmt.Sprintf("card-%d", i))))
		cards = append(cards, c)
		if i == 3 {
			break
		}
		u, err := h.AddVertex(tpg.Always, "User")
		check(err)
		check(h.SetVertexProp(u, "name", lpg.Str(fmt.Sprintf("user-%d", i))))
		e, err := h.AddEdge(u, c, "USES", tpg.Always)
		check(err)
		users, uses = append(users, u), append(uses, e)
	}

	in := NewIngestor(h)
	watch := &Continuous{
		Query: `
			MATCH (u:User)-[:USES]->(c:CreditCard)
			WHERE ts.min(c) < 0.2 * ts.mean(c)
			RETURN u.name AS drained`,
		Slide: 6 * ts.Hour,
		Emit: func(at ts.Time, res *hyql.Result) {
			if len(res.Rows) == 0 {
				fmt.Printf("window %-22v ok (no drained balances)\n", at)
				return
			}
			for _, row := range res.Rows {
				fmt.Printf("window %-22v ALERT: %s balance collapsed\n", at, row[0])
			}
		},
	}
	check(in.Register(watch, 0))

	// Stream 48 hours of balances; card-2 drains during hours 20-24.
	for hh := 1; hh <= 48; hh++ {
		at := ts.Time(hh) * ts.Hour
		for i, c := range cards {
			v := 1000 + rng.NormFloat64()*20
			if i == 2 && hh >= 20 && hh < 24 {
				v = 40
			}
			apply(in, Update{Kind: Append, At: at, Vertex: c, Value: v})
		}
		switch hh {
		case 12: // a late correction re-sends card-0's hour-11 balance
			apply(in, Update{Kind: Upsert, At: at - ts.Hour, Vertex: cards[0], Value: 1000})
		case 30: // the bank revokes card-2 and links user-2 to card-3
			apply(in, Update{Kind: EndEdge, At: at, Edge: uses[2]})
			apply(in, Update{Kind: AddEdge, At: at, From: users[2], To: cards[3], Label: "USES"})
		}
	}
	st := in.Stats()
	fmt.Printf("\ningested %d appends, %d correction, %d edges added and %d ended across %d series; %d continuous evaluations\n",
		st.Appended, st.Upserted, st.EdgesAdded, st.EdgesEnded, len(cards), watch.Fires())
}

func apply(in *Ingestor, u Update) {
	if err := in.Apply(u); err != nil {
		log.Fatal(err)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
