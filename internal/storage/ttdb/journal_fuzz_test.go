package ttdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/storage/walrec"
	"hygraph/internal/ts"
)

// FuzzJournalReplay recovers one fixed pair of graph and TS logs against
// arbitrary bytes as the intent journal. Recovery must never panic; the same
// bytes recovered twice must give the same summary and station set; and on
// success NextTxn must exceed every txn id the journal holds, so a resumed
// engine never reuses one. Run the fuzzer with:
//
//	go test ./internal/storage/ttdb -run FuzzJournalReplay -fuzz FuzzJournalReplay -fuzztime 30s
func FuzzJournalReplay(f *testing.F) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(f)
	var cuts []int // journal length after each step
	step := func(what string, pt string, spec faults.Spec, op func() error) {
		if pt != "" {
			faults.Enable(pt, spec)
		}
		err := op()
		faults.Reset()
		if (pt == "") != (err == nil) {
			f.Fatalf("%s: err = %v", what, err)
		}
		cuts = append(cuts, dk.journal.Len())
	}
	var first StationID
	step("commit", "", faults.Spec{}, func() (err error) {
		first, err = d.IngestStation("a", "d", stationSeries(0))
		return err
	})
	ingest := func() error { _, err := d.IngestStation("b", "d", stationSeries(1)); return err }
	step("lost commit record", FaultJournalAppend, faults.Spec{Nth: 3, Count: 1}, ingest)
	step("crash after PREPARED", FaultIngestTS, faults.Spec{Count: 1}, ingest)
	step("crash after BEGIN", FaultIngestGraph, faults.Spec{Count: 1}, ingest)
	step("delete", "", faults.Spec{}, func() error { return d.DeleteStation(first) })
	graphLog, tsLog := dk.graphLog.Bytes(), dk.tsLog.Bytes()
	journal := dk.journal.Bytes()

	for _, n := range cuts {
		f.Add(journal[:n])
	}
	f.Add(journal[:len(journal)-1])
	flipped := append([]byte(nil), journal...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	// A well-framed record with the largest txn id: NextTxn cannot exceed it.
	var top bytes.Buffer
	w := walrec.NewWriter(&top)
	w.Append(binary.AppendUvarint(binary.AppendUvarint([]byte{jCommit}, math.MaxUint64), uint64(first)))
	w.Flush()
	f.Add(top.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	recoverJournal := func(data []byte) (PolyglotRecovery, []StationID, error) {
		eng, rec, err := RecoverPolyglot(nil, bytes.NewReader(graphLog), nil, bytes.NewReader(tsLog),
			bytes.NewReader(data), ts.Day)
		if err != nil {
			return rec, nil, err
		}
		stations := eng.G.NodesByLabel("Station")
		slices.Sort(stations)
		return rec, stations, nil
	}
	rec, _, err := recoverJournal(journal)
	if err != nil {
		f.Fatal(err)
	}
	var fates []string
	for _, fate := range rec.Fates {
		fates = append(fates, fate.Fate)
	}
	if want := []string{"committed", "rolled-forward", "rolled-back", "rolled-back", "deleted"}; !slices.Equal(fates, want) {
		f.Fatalf("seed journal fates %v, want %v", fates, want)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, stations, err := recoverJournal(data)
		rec2, stations2, err2 := recoverJournal(data)
		if fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(rec, rec2) || !slices.Equal(stations, stations2) {
			t.Fatalf("recovering twice diverged:\n%v %+v %v\n%v %+v %v", err, rec, stations, err2, rec2, stations2)
		}
		if err != nil {
			return
		}
		sc := walrec.NewScanner(bytes.NewReader(data))
		for {
			payload, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("recovery accepted a journal the scanner rejects: %v", err)
			}
			_, txn, _, err := parseJournalRecord(payload)
			if err != nil {
				t.Fatalf("recovery accepted a record the parser rejects: %v", err)
			}
			if txn >= rec.NextTxn {
				t.Fatalf("NextTxn %d does not exceed accepted txn %d", rec.NextTxn, txn)
			}
		}
	})
}
