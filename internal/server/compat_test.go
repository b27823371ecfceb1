package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hygraph/internal/obs"
)

// The directories under testdata/parent-1p and testdata/parent-2p were
// written by the server as it was before every tenant went through the
// coordinator: one tenant "compat", served at one partition by a bare engine
// (stations numbered by node id from 0, no gid on any node) and at two by
// the coordinator (gids from 1, <tenant>.pI directories). Each holds six
// stations s0…s5 with six hourly samples, seven trips and one appended
// sample per station. The two-partition directory also holds a Station node
// without a gid in compat.p0, written there by that build's `hygraph
// ingest`; its node id equals the gid of s5, so it must not be adopted. The
// .json beside each directory holds the station ids that server returned
// and its answers to Q1–Q8, a downsample and one HyQL query, recorded by
// serving the directory with that build.

// compatExpect is one recorded run.
type compatExpect struct {
	Stations map[string]float64 `json:"stations"`
	Queries  map[string]any     `json:"queries"`
	HyQL     struct {
		Query string `json:"query"`
		At    int64  `json:"at"`
		Rows  any    `json:"rows"`
	} `json:"hyql"`
	StatsStations float64 `json:"stats_stations"`
}

// copyDir copies a testdata tree into a fresh directory, so serving it
// never writes to the committed files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// serveDir serves root over parts partitions until the test ends.
func serveDir(t *testing.T, root string, parts int) *httptest.Server {
	t.Helper()
	s, err := New(Config{Backend: &DirBackend{Root: root}, Partitions: parts, Obs: obs.New(), DefaultTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	return hs
}

// TestServesParentDirectories: a tenant directory the earlier server wrote
// is served with the station ids that server returned, and every recorded
// answer is unchanged.
func TestServesParentDirectories(t *testing.T) {
	const hour = 3600000
	for _, tc := range []struct {
		dir   string
		parts int
	}{{"parent-1p", 1}, {"parent-2p", 2}} {
		t.Run(tc.dir, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.dir+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var want compatExpect
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			base := serveDir(t, copyDir(t, filepath.Join("testdata", tc.dir)), tc.parts).URL + "/v1/tenants/compat"

			// Each station id names the station the earlier server gave it:
			// station i held 2i + (h·(i+1) mod 5) at hours 0–5, then 10+i.
			maxID := 0.0
			for i := 0; i < 6; i++ {
				id := want.Stations[fmt.Sprintf("s%d", i)]
				maxID = max(maxID, id)
				sum := float64(10 + i)
				for h := 0; h < 6; h++ {
					sum += float64(2*i + h*(i+1)%5)
				}
				code, body, _ := doJSON(t, "GET", fmt.Sprintf("%s/query?name=Q3&station=%.0f&start=0&end=%d", base, id, 7*hour), nil, nil)
				if code != http.StatusOK || body["result"] != sum/7 {
					t.Fatalf("station s%d (id %.0f): Q3 %d %v, want %v", i, id, code, body["result"], sum/7)
				}
			}
			for q, res := range want.Queries {
				code, body, _ := doJSON(t, "GET", base+"/query?"+q, nil, nil)
				if code != http.StatusOK || !reflect.DeepEqual(body["result"], res) {
					t.Errorf("%s: %d %v, want %v", q, code, body["result"], res)
				}
			}
			code, body, _ := doJSON(t, "POST", base+"/hyql", map[string]any{"query": want.HyQL.Query, "at": want.HyQL.At}, nil)
			if code != http.StatusOK || !reflect.DeepEqual(body["rows"], want.HyQL.Rows) {
				t.Errorf("hyql: %d %v, want %v", code, body["rows"], want.HyQL.Rows)
			}
			code, body, _ = doJSON(t, "GET", base+"/stats", nil, nil)
			if code != http.StatusOK || body["stations"] != want.StatsStations {
				t.Errorf("stats: %d %v stations, want %v", code, body["stations"], want.StatsStations)
			}

			// A new station is numbered past every id the directory holds.
			code, body, _ = doJSON(t, "POST", base+"/stations", map[string]any{
				"name": "s6", "district": "west", "points": []map[string]any{{"t": 0, "v": 1}}}, nil)
			if code != http.StatusOK || body["station"] != maxID+1 {
				t.Fatalf("new station: %d %v, want id %v", code, body, maxID+1)
			}
		})
	}
}
