package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// tenant is the namespace every workload runs in.
const tenant = "hymark"

// wire speaks the /v1 protocol of docs/SERVICE.md with the standard library
// only. It never retries: a refused or failed request is a failed op.
type wire struct {
	base string
	hc   *http.Client
}

// newWire keeps at most conns connections open, the workload's client count.
func newWire(base string, conns int) *wire {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &wire{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (w *wire) close() { w.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx response; any other
// outcome — transport error, shed, deadline miss, server error — is an error.
func (w *wire) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (w *wire) get(path string) ([]byte, error) { return w.do(http.MethodGet, path, nil) }

func (w *wire) post(path string, body []byte) ([]byte, error) {
	return w.do(http.MethodPost, path, body)
}

func (w *wire) ingestStation(body []byte) (uint32, error) {
	out, err := w.post("/v1/tenants/"+tenant+"/stations", body)
	if err != nil {
		return 0, err
	}
	var resp struct {
		Station *uint32 `json:"station"`
	}
	if err := json.Unmarshal(out, &resp); err != nil || resp.Station == nil {
		return 0, fmt.Errorf("station ingest answered %q", out)
	}
	return *resp.Station, nil
}

func (w *wire) addTrip(from, to uint32, count int) error {
	_, err := w.post("/v1/tenants/"+tenant+"/trips",
		[]byte(fmt.Sprintf(`{"from":%d,"to":%d,"count":%d}`, from, to, count)))
	return err
}

func (w *wire) appendPoint(station uint32, t int64, v float64) error {
	b := make([]byte, 0, 64)
	b = append(b, `{"station":`...)
	b = strconv.AppendUint(b, uint64(station), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	b = append(b, '}')
	_, err := w.post("/v1/tenants/"+tenant+"/points", b)
	return err
}

// query runs one of Q1..Q8 or downsample and returns the raw "result" value.
func (w *wire) query(params url.Values) (json.RawMessage, error) {
	out, err := w.get("/v1/tenants/" + tenant + "/query?" + params.Encode())
	if err != nil {
		return nil, err
	}
	var resp struct {
		Result   json.RawMessage `json:"result"`
		Degraded bool            `json:"degraded"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, fmt.Errorf("query answered %q: %w", out, err)
	}
	if resp.Degraded {
		return nil, fmt.Errorf("query %s answered degraded", params.Get("name"))
	}
	return resp.Result, nil
}

// hyql runs one HyQL query and returns its rows.
func (w *wire) hyql(query string, at int64) ([][]string, error) {
	body, err := json.Marshal(map[string]any{"query": query, "at": at})
	if err != nil {
		return nil, err
	}
	out, err := w.post("/v1/tenants/"+tenant+"/hyql", body)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, fmt.Errorf("hyql answered %q: %w", out, err)
	}
	return resp.Rows, nil
}

// stationCount reads the tenant's station count from /stats.
func (w *wire) stationCount() (int, error) {
	out, err := w.get("/v1/tenants/" + tenant + "/stats")
	if err != nil {
		return 0, err
	}
	var resp struct {
		Stations int `json:"stations"`
	}
	err = json.Unmarshal(out, &resp)
	return resp.Stations, err
}

// metrics is the part of a /v1/metrics snapshot the per-layer figures use.
type metrics struct {
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]struct {
		Value float64 `json:"value"`
		High  float64 `json:"high"`
	} `json:"gauges"`
	Durations map[string]struct {
		Count   float64 `json:"count"`
		TotalNS float64 `json:"total_ns"`
	} `json:"durations"`
}

func (w *wire) metrics() (*metrics, error) {
	out, err := w.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	var m metrics
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("metrics answered %.80q: %w", out, err)
	}
	return &m, nil
}
