package walrec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

func scanAll(t *testing.T, buf *bytes.Buffer) [][]byte {
	t.Helper()
	sc := NewScanner(bytes.NewReader(buf.Bytes()))
	var out [][]byte
	for {
		p, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		cp := make([]byte, len(p))
		copy(cp, p)
		out = append(out, cp)
	}
}

// A single committer must see exactly the plain Writer's behaviour: every
// Sync is one physical flush covering everything appended since the last.
func TestGroupSingleWriter(t *testing.T) {
	var buf bytes.Buffer
	g := NewGroup(NewWriter(&buf))
	flushes, covered := 0, 0
	g.SetHooks(nil, func(n int) { flushes++; covered += n })

	for i := 0; i < 5; i++ {
		if _, err := g.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if flushes != 1 || covered != 5 {
		t.Fatalf("flushes=%d covered=%d, want 1/5", flushes, covered)
	}
	if _, err := g.Append([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if flushes != 2 || covered != 6 {
		t.Fatalf("flushes=%d covered=%d, want 2/6", flushes, covered)
	}
	recs := scanAll(t, &buf)
	if len(recs) != 6 {
		t.Fatalf("scanned %d records, want 6", len(recs))
	}
	for i, r := range recs {
		want := byte(i)
		if i == 5 {
			want = 9
		}
		if len(r) != 1 || r[0] != want {
			t.Fatalf("record %d = %v", i, r)
		}
	}
}

// An explicit Sync with nothing pending still performs a physical flush —
// the pre-group-commit Flush contract that fault injection relies on.
func TestGroupSyncAlwaysFlushesWhenLeading(t *testing.T) {
	var buf bytes.Buffer
	g := NewGroup(NewWriter(&buf))
	flushes := 0
	g.SetHooks(nil, func(int) { flushes++ })
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if flushes != 2 {
		t.Fatalf("empty Syncs flushed %d times, want 2", flushes)
	}
}

// A transient flush failure (the fault-injection shape: beforeFlush errors,
// the Writer itself stays healthy) must surface to the committer, keep the
// records buffered, and let a retried Sync deliver each record exactly once.
func TestGroupTransientFlushFailureRetries(t *testing.T) {
	var buf bytes.Buffer
	g := NewGroup(NewWriter(&buf))
	injected := errors.New("injected flush fault")
	arm := true
	g.SetHooks(func() error {
		if arm {
			arm = false
			return injected
		}
		return nil
	}, nil)

	if _, err := g.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync error = %v, want injected fault", err)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("transient fault latched the writer: %v", err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	recs := scanAll(t, &buf)
	if len(recs) != 2 || string(recs[0]) != "a" || string(recs[1]) != "b" {
		t.Fatalf("after retry: %q", recs)
	}
}

// A fatal Writer error latches the group: later Appends and Commits fail.
func TestGroupLatchesFatalError(t *testing.T) {
	g := NewGroup(NewWriter(&failAfter{n: 8}))
	payload := bytes.Repeat([]byte{7}, 3000)
	var firstErr error
	for i := 0; i < 10 && firstErr == nil; i++ {
		if _, err := g.Append(payload); err != nil {
			firstErr = err
			break
		}
		firstErr = g.Sync()
	}
	if firstErr == nil {
		t.Fatal("failing writer accepted everything")
	}
	if _, err := g.Append([]byte("more")); err == nil {
		t.Fatal("append after latched error succeeded")
	}
	if err := g.Sync(); err == nil {
		t.Fatal("sync after latched error succeeded")
	}
	if g.Err() == nil {
		t.Fatal("error not latched")
	}
}

// Many concurrent committers: every record lands exactly once, in a valid
// log, and the flush count shows coalescing (fewer flushes than commits).
func TestGroupConcurrentCommitters(t *testing.T) {
	var buf bytes.Buffer
	g := NewGroup(NewWriter(&buf))
	var mu sync.Mutex
	flushes := 0
	g.SetHooks(nil, func(int) { mu.Lock(); flushes++; mu.Unlock() })

	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := g.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := g.Commit(seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}

	recs := scanAll(t, &buf)
	if len(recs) != writers*per {
		t.Fatalf("scanned %d records, want %d", len(recs), writers*per)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[string(r)] {
			t.Fatalf("duplicate record %q", r)
		}
		seen[string(r)] = true
	}
	// At most one physical flush per commit, plus the final forced Sync.
	if flushes > writers*per+1 {
		t.Fatalf("flushes=%d exceeds commits=%d", flushes, writers*per)
	}
	t.Logf("commits=%d physical flushes=%d", writers*per, flushes)
}

// gate blocks the leader inside its flush attempt so the test can park
// riders on the group's latch deterministically before the attempt resolves.
type gate struct {
	entered chan struct{} // closed when the leader reaches the gate
	release chan struct{} // the leader waits here
	once    sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (ga *gate) hold() {
	ga.once.Do(func() { close(ga.entered) })
	<-ga.release
}

// Sync callers that ride a failing leader flush — records in the failing
// batch or enqueued while it was in flight — must all observe the flush
// error, not just the leader that performed the I/O. A rider returning nil
// would acknowledge a write the log never accepted.
func TestGroupSyncRidersObserveLeaderFlushError(t *testing.T) {
	var buf bytes.Buffer
	g := NewGroup(NewWriter(&buf))
	injected := errors.New("injected leader flush failure")
	ga := newGate()
	var arm bool
	g.SetHooks(func() error {
		if arm {
			arm = false
			ga.hold()
			return injected
		}
		return nil
	}, nil)

	// Records "r0".."r2" are enqueued before the leader flushes, so the
	// failing attempt covers them.
	preSeqs := make([]uint64, 3)
	for i := range preSeqs {
		seq, err := g.Append([]byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		preSeqs[i] = seq
	}

	arm = true
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- g.Sync() }()
	<-ga.entered // leader is inside the failing flush attempt

	// Riders: two commit records from the failing batch, one enqueues a new
	// record during the flight, one is a bare Sync with nothing of its own.
	riderErrs := make(chan error, 4)
	for _, seq := range preSeqs[1:] {
		go func(seq uint64) { riderErrs <- g.Commit(seq) }(seq)
	}
	go func() {
		seq, err := g.Append([]byte("late"))
		if err != nil {
			riderErrs <- err
			return
		}
		riderErrs <- g.Commit(seq)
	}()
	go func() { riderErrs <- g.Sync() }()
	time.Sleep(20 * time.Millisecond) // let the riders park on the latch
	close(ga.release)

	if err := <-leaderErr; !errors.Is(err, injected) {
		t.Fatalf("leader error = %v, want injected", err)
	}
	for i := 0; i < 4; i++ {
		if err := <-riderErrs; !errors.Is(err, injected) {
			t.Fatalf("rider %d error = %v, want injected", i, err)
		}
	}

	// The hook failure is transient: nothing latched, a retried Sync lands
	// every record exactly once.
	if err := g.Err(); err != nil {
		t.Fatalf("transient flush failure latched the group: %v", err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("retried Sync: %v", err)
	}
	recs := scanAll(t, &buf)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
}

// blockThenFail blocks the first Write at the gate, then fails it — the
// underlying-device version of the race above. Unlike a hook error this
// latches the Writer, so riders must see the latched error and every later
// Append and Sync must keep failing.
type blockThenFail struct {
	ga *gate
}

func (w *blockThenFail) Write(p []byte) (int, error) {
	w.ga.hold()
	return 0, errors.New("device failed mid-flush")
}

func TestGroupSyncRacingLatchingLeaderFlush(t *testing.T) {
	ga := newGate()
	g := NewGroup(NewWriter(&blockThenFail{ga: ga}))

	seq, err := g.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- g.Commit(seq) }()
	<-ga.entered // leader is blocked inside the device write

	riderErrs := make(chan error, 2)
	go func() { riderErrs <- g.Sync() }()
	go func() { riderErrs <- g.Commit(seq) }()
	time.Sleep(20 * time.Millisecond)
	close(ga.release)

	if err := <-leaderErr; err == nil {
		t.Fatal("leader Commit succeeded past a failing device")
	}
	for i := 0; i < 2; i++ {
		if err := <-riderErrs; err == nil {
			t.Fatalf("rider %d observed nil from a latching flush failure", i)
		}
	}
	if g.Err() == nil {
		t.Fatal("device failure did not latch the group")
	}
	if _, err := g.Append([]byte("more")); err == nil {
		t.Fatal("Append after latched failure succeeded")
	}
	if err := g.Sync(); err == nil {
		t.Fatal("Sync after latched failure succeeded")
	}
}
