// Package mark holds the parts of hymark that do not touch the program under
// test: the seeded dataset and op-list generators, the reference model the
// answers are checked against, and the statistics. The e2e harness
// (benchmark/*.go) and the layer ladder (benchmark/layers) both import it, so
// the two replay the same inputs.
package mark

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
)

// Time units in epoch milliseconds, the unit of the wire protocol.
const (
	Hour int64 = 3600_000
	Day        = 24 * Hour
	Week       = 7 * Day
)

// Station is one bike-sharing station: hourly availability from t=0.
type Station struct {
	Name     string
	District string
	Vals     []float64 // Vals[i] is the sample at i*Hour
}

// Trip is one undirected TRIP edge between two station indexes.
type Trip struct {
	From, To, Count int
}

// Dataset is what set-up loads through the ingest API.
type Dataset struct {
	Stations []Station
	Trips    []Trip
	Days     int
}

// Points is the number of samples the dataset holds.
func (d *Dataset) Points() int { return len(d.Stations) * d.Days * 24 }

const (
	districts   = 12
	tripsPerStn = 4
)

// Generate builds a bike-sharing dataset: each station has a capacity and a
// commuter profile (a daily double peak, quieter weekends) plus noise, and
// availability is a whole number of bikes clamped to [0, capacity]. The shape
// — station, district, trip and sample counts — depends only on the sizes, so
// runs on different seeds do the same amount of work on different values.
func Generate(seed int64, stations, days int) *Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &Dataset{Days: days}
	n := days * 24
	for s := 0; s < stations; s++ {
		capacity := 12 + r.Intn(28)
		level := 0.3 + 0.4*r.Float64()
		swing := 0.15 + 0.2*r.Float64()
		phase := r.Float64() * 2
		vals := make([]float64, n)
		for i := range vals {
			hour := float64(i % 24)
			weekday := (i / 24) % 7
			daily := math.Sin((hour-7-phase)/24*4*math.Pi) * swing
			if weekday >= 5 {
				daily *= 0.4
			}
			v := math.Round(float64(capacity) * (level + daily + 0.08*r.NormFloat64()))
			vals[i] = math.Max(0, math.Min(float64(capacity), v))
		}
		d.Stations = append(d.Stations, Station{
			Name:     fmt.Sprintf("st-%04d", s),
			District: fmt.Sprintf("district-%02d", s%districts),
			Vals:     vals,
		})
	}
	seen := map[[2]int]bool{}
	for s := 0; s < stations && stations > 1; s++ {
		for k := 0; k < tripsPerStn; k++ {
			o := r.Intn(stations)
			a, b := min(s, o), max(s, o)
			if a == b || seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			d.Trips = append(d.Trips, Trip{From: s, To: o, Count: 1 + r.Intn(200)})
		}
	}
	return d
}

// Hash is a digest of everything set-up sends, for the reproducibility test
// and the result's fingerprint.
func (d *Dataset) Hash() string {
	h := sha256.New()
	var b [8]byte
	for _, s := range d.Stations {
		h.Write([]byte(s.Name))
		h.Write([]byte(s.District))
		for _, v := range s.Vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, t := range d.Trips {
		fmt.Fprintf(h, "%d-%d:%d;", t.From, t.To, t.Count)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
