package walrec

import "sync"

// GroupWriter coalesces framed-record commits from many writers into batched
// flushes of one underlying Writer — classic WAL group commit. Writers
// enqueue fully materialized payloads with Append (cheap, no I/O) and make
// them durable with Commit: the first committer to arrive becomes the leader,
// drains everything pending into the Writer and performs a single Flush;
// committers that arrive while a flush is in flight wait on it and usually
// find their records already durable when it completes — one buffered write
// and one flush per batch window instead of one per record.
//
// The Writer's error-latch invariant is preserved conservatively: once the
// underlying Writer latches an error, every later Append and Commit fails
// with it, so a known-bad record can never be followed by further records
// (which would turn a recoverable torn tail into mid-log corruption). A
// flush-attempt error that does not latch the Writer — the fault-injection
// hook — is reported to every committer waiting on that attempt and the
// records stay buffered for the next (retried) flush, matching the
// per-commit Writer's retry semantics.
type GroupWriter struct {
	mu   sync.Mutex
	cond *sync.Cond
	fw   *Writer

	pending [][]byte // enqueued, not yet handed to fw
	enq     uint64   // records enqueued so far
	handed  uint64   // records handed to fw (buffered)
	durable uint64   // records known flushed

	leading bool   // a leader's flush attempt is in flight
	gen     uint64 // completed flush attempts
	genErr  error  // error of the most recently completed attempt
	err     error  // latched fatal error (the Writer's latch, surfaced)

	beforeFlush func() error // runs before each physical flush (fault hook)
	afterFlush  func(n int)  // runs after each successful flush; n = records
}

// NewGroup wraps fw. A batch is everything pending when its leader starts
// to flush. Without hooks the writer behaves like the plain Writer under a
// single committer: every Commit is one append run plus one flush.
func NewGroup(fw *Writer) *GroupWriter {
	g := &GroupWriter{fw: fw}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// SetHooks installs the flush hooks: before runs ahead of every physical
// flush (the WAL layers inject their flush fault point here, so injection
// fires once per coalesced flush, exactly as it fired once per Flush call
// before), after runs on each successful flush with the number of records it
// covered (the WAL layers count physical flushes here). Call before the
// writer is shared; nil disables a hook.
func (g *GroupWriter) SetHooks(before func() error, after func(n int)) {
	g.beforeFlush = before
	g.afterFlush = after
}

// Err returns the latched fatal error, if any.
func (g *GroupWriter) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	return g.fw.Err()
}

// Append enqueues one record for the next flush window and returns its
// sequence number for Commit. Append takes ownership of payload: it is
// queued as is, not copied, so the caller must not modify the buffer
// afterwards — every caller builds a fresh buffer per record. Append
// performs no I/O and never blocks on a flush.
func (g *GroupWriter) Append(payload []byte) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, g.err
	}
	g.pending = append(g.pending, payload)
	g.enq++
	return g.enq, nil
}

// Enqueued returns the sequence number of the most recently appended record;
// Commit(Enqueued()) makes everything enqueued so far durable.
func (g *GroupWriter) Enqueued() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.enq
}

// Commit blocks until every record with sequence <= seq is durably flushed,
// or until the flush attempt covering them fails. If no flush is in flight
// the caller leads one itself; otherwise it waits for the in-flight attempt,
// and typically returns without flushing at all — that coalescing is the
// whole point.
func (g *GroupWriter) Commit(seq uint64) error { return g.commit(seq, false) }

// Sync is Commit(Enqueued()) that always performs at least one physical
// flush attempt when it has to lead — even with nothing pending — so a
// caller's explicit flush keeps its pre-group-commit semantics (the flush
// fault point fires, buffered bytes reach the device). A Sync that finds its
// records made durable by another leader still returns without flushing.
func (g *GroupWriter) Sync() error {
	g.mu.Lock()
	seq := g.enq
	g.mu.Unlock()
	return g.commit(seq, true)
}

func (g *GroupWriter) commit(seq uint64, force bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		if g.durable >= seq && !force {
			return nil
		}
		if !g.leading {
			return g.leadLocked(seq)
		}
		// A leader's flush is in flight: wait for that attempt to finish,
		// then re-evaluate. If it covered our records we are done without
		// ever touching the file.
		gen := g.gen
		for g.leading && g.gen == gen {
			g.cond.Wait()
		}
		force = false // an attempt ran on our behalf
		if g.err == nil && g.durable < seq && g.genErr != nil {
			// The attempt our records rode on failed transiently; report it
			// so the caller's retry policy decides what happens next.
			return g.genErr
		}
	}
}

// leadLocked runs flush attempts until every record <= seq is durable or an
// attempt fails. Called with g.mu held; unlocks around the I/O.
func (g *GroupWriter) leadLocked(seq uint64) error {
	for {
		g.leading = true
		batch := g.pending
		g.pending = g.pending[len(batch):]
		handedEnd := g.handed + uint64(len(batch))
		g.mu.Unlock()

		var err error
		for _, p := range batch {
			if err = g.fw.Append(p); err != nil {
				break
			}
		}
		if err == nil && g.beforeFlush != nil {
			err = g.beforeFlush()
		}
		if err == nil {
			err = g.fw.Flush()
		}
		if err == nil && g.afterFlush != nil {
			g.afterFlush(len(batch))
		}

		g.mu.Lock()
		g.leading = false
		g.gen++
		g.genErr = err
		g.handed = handedEnd
		if err == nil {
			// A successful flush makes everything handed to fw durable,
			// including records buffered by an earlier failed attempt.
			g.durable = handedEnd
		}
		if ferr := g.fw.Err(); ferr != nil && g.err == nil {
			g.err = ferr
		}
		g.cond.Broadcast()
		if err != nil {
			return err
		}
		if g.err != nil {
			return g.err
		}
		if g.durable >= seq {
			return nil
		}
	}
}
