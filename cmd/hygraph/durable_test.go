package main

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// ingest refuses a directory named like partition i of a partitioned tenant,
// "<tenant>.p<i>", naming the tenant, and exits 1 before it creates the
// directory. The refusal runs in a child process, since it exits.
func TestIngestRefusesPartitionDir(t *testing.T) {
	if dir := os.Getenv("HYGRAPH_TEST_INGEST_DIR"); dir != "" {
		runIngest(dir, 2, "", 1)
		return
	}
	dir := filepath.Join(t.TempDir(), "t.p0")
	cmd := exec.Command(os.Args[0], "-test.run=^TestIngestRefusesPartitionDir$")
	cmd.Env = append(os.Environ(), "HYGRAPH_TEST_INGEST_DIR="+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ingest into %s: %v, want exit 1; output:\n%s", dir, err, out)
	}
	if !strings.Contains(string(out), `one partition of tenant "t"`) {
		t.Fatalf("refusal does not name tenant t:\n%s", out)
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused ingest left %s behind (stat: %v)", dir, err)
	}
	for _, name := range []string{"t.p12", "a.b.p3"} {
		if err := checkIngestDir(filepath.Join("R", name) + "/"); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	for _, name := range []string{"t", "t.p", "t.px", "t.p1a", ".p0", "p0"} {
		if err := checkIngestDir(filepath.Join("R", name)); err != nil {
			t.Fatalf("%s refused: %v", name, err)
		}
	}
}

// A plain tenant directory still ingests, twice over: the second run
// numbers its stations past the first's.
func TestIngestPlainTenantDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	runIngest(dir, 3, "", 1)
	runIngest(dir, 2, "", 2)
	d, _, closer, err := ttdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	c, err := coord.Attach([]*ttdb.DurablePolyglot{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(context.Background(), ttdb.Q4(math.MinInt64, ts.MaxTime))
	if err != nil {
		t.Fatal(err)
	}
	if want := []ttdb.StationID{1, 2, 3, 4, 5}; !slices.Equal(res.IDs, want) {
		t.Fatalf("stations %v after ingesting 3 and 2, want ids 1–5", res.IDs)
	}
}
