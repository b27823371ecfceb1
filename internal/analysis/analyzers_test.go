package analysis

import "testing"

// Each analyzer's golden package: the build fails if the analyzer stops
// producing (or over-produces) findings against the annotated sources.

func TestLockDiscipline(t *testing.T) {
	runWantTest(t, "testdata/lockdiscipline", singleCheckPolicy("lockdiscipline"))
}

func TestMapOrderFold(t *testing.T) {
	runWantTest(t, "testdata/maporderfold", singleCheckPolicy("maporderfold"))
}

func TestWALErrLatch(t *testing.T) {
	runWantTest(t, "testdata/walerrlatch", singleCheckPolicy("walerrlatch"))
}

func TestPanicFree(t *testing.T) {
	policy := singleCheckPolicy("panicfree")
	policy.Checks["panicfree"].Allow = []Allowance{
		{Site: "hyvet.test/panicfree.Graph.MustAdd", Reason: "documented Must helper"},
	}
	runWantTest(t, "testdata/panicfree", policy)
}

func TestNondeterminism(t *testing.T) {
	runWantTest(t, "testdata/nondeterminism", singleCheckPolicy("nondeterminism"))
}

func TestCtxFlow(t *testing.T) {
	runWantTest(t, "testdata/ctxflow", singleCheckPolicy("ctxflow"))
}

func TestAtomicMix(t *testing.T) {
	runWantTest(t, "testdata/atomicmix", singleCheckPolicy("atomicmix"))
}

func TestGoroutineLifetime(t *testing.T) {
	runWantTest(t, "testdata/goroutinelifetime", singleCheckPolicy("goroutinelifetime"))
}

func TestBoundedAlloc(t *testing.T) {
	runWantTest(t, "testdata/boundedalloc", singleCheckPolicy("boundedalloc"))
}

func TestUnreached(t *testing.T) {
	policy := singleCheckPolicy("unreached")
	policy.Checks["unreached"].Allow = []Allowance{
		{Site: "hyvet.test/unreached.Allowed", Reason: "paper artifact a root benchmark reaches"},
	}
	runWantTest(t, "testdata/unreached", policy)
}
