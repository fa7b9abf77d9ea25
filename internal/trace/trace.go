// Package trace records and replays query traces. A trace pins every
// stochastic choice of a workload — arrival times, classes, fanouts,
// placements, and per-task service times — so an experiment can be
// re-driven bit-for-bit under different queuing policies, the way the
// paper drives its simulations from Tailbench-derived traces.
//
// Traces serialize as JSON Lines (one query per line, self-describing,
// diff-friendly) or gob (compact, fast).
package trace

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// Record is one traced query with pinned service times.
type Record struct {
	ID       int64     `json:"id"`
	Arrival  float64   `json:"arrival_ms"`
	Class    int       `json:"class"`
	Servers  []int     `json:"servers"`
	Services []float64 `json:"services_ms"`
	Request  int64     `json:"request,omitempty"`
}

func (rec *Record) validate(prevArrival float64) error {
	if rec.Arrival < prevArrival {
		return fmt.Errorf("trace: query %d arrival %v before previous %v", rec.ID, rec.Arrival, prevArrival)
	}
	if len(rec.Servers) == 0 {
		return fmt.Errorf("trace: query %d has no servers", rec.ID)
	}
	if len(rec.Services) != len(rec.Servers) {
		return fmt.Errorf("trace: query %d has %d services for %d servers", rec.ID, len(rec.Services), len(rec.Servers))
	}
	for i, s := range rec.Services {
		if s < 0 {
			return fmt.Errorf("trace: query %d task %d has negative service time %v", rec.ID, i, s)
		}
	}
	if rec.Class < 0 {
		return fmt.Errorf("trace: query %d has negative class %d", rec.ID, rec.Class)
	}
	return nil
}

// Generate draws n queries from the generator and pins their task service
// times from the per-server distributions (one entry = homogeneous). The
// sampling RNG is the generator's own stream, so a (generator seed, n)
// pair fully determines the trace.
func Generate(gen *workload.Generator, services []dist.Distribution, servers, n int, seed int64) ([]Record, error) {
	if gen == nil {
		return nil, fmt.Errorf("trace: generator is required")
	}
	if n < 1 {
		return nil, fmt.Errorf("trace: need >= 1 query, got %d", n)
	}
	switch len(services) {
	case 1, servers:
	default:
		return nil, fmt.Errorf("trace: services must have 1 or %d entries, got %d", servers, len(services))
	}
	svcFor := func(s int) dist.Distribution {
		if len(services) == 1 {
			return services[0]
		}
		return services[s]
	}
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		q, ok := gen.Next()
		if !ok {
			break
		}
		svc := make([]float64, len(q.Servers))
		for j, s := range q.Servers {
			if s < 0 || s >= servers {
				return nil, fmt.Errorf("trace: query %d placed on server %d outside [0, %d)", q.ID, s, servers)
			}
			svc[j] = svcFor(s).Sample(rng)
		}
		recs = append(recs, Record{
			ID:       q.ID,
			Arrival:  q.Arrival,
			Class:    q.Class,
			Servers:  q.Servers,
			Services: svc,
			Request:  q.Request,
		})
	}
	return recs, nil
}

// Save writes records as JSON Lines.
func Save(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Load reads and validates a JSON Lines trace.
func Load(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var recs []Record
	prev := 0.0
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("trace: decoding record %d: %w", len(recs), err)
		}
		if err := rec.validate(prev); err != nil {
			return nil, err
		}
		prev = rec.Arrival
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return recs, nil
}

// SaveGob writes records in gob format.
func SaveGob(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(recs); err != nil {
		return fmt.Errorf("trace: gob encode: %w", err)
	}
	return bw.Flush()
}

// LoadGob reads and validates a gob trace.
func LoadGob(r io.Reader) ([]Record, error) {
	var recs []Record
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&recs); err != nil {
		return nil, fmt.Errorf("trace: gob decode: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	prev := 0.0
	for i := range recs {
		if err := recs[i].validate(prev); err != nil {
			return nil, err
		}
		prev = recs[i].Arrival
	}
	return recs, nil
}

// Replayer replays a trace as a workload.QuerySource.
type Replayer struct {
	recs []Record
	next int
}

// NewReplayer wraps records (not copied) in a finite query source.
func NewReplayer(recs []Record) (*Replayer, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &Replayer{recs: recs}, nil
}

// NextInto implements workload.QuerySource. The query shares the
// record's Servers and Services slices.
func (r *Replayer) NextInto(q *workload.Query) bool {
	if r.next >= len(r.recs) {
		return false
	}
	rec := &r.recs[r.next]
	r.next++
	*q = workload.Query{
		ID:       rec.ID,
		Arrival:  rec.Arrival,
		Class:    rec.Class,
		Fanout:   len(rec.Servers),
		Servers:  rec.Servers,
		Services: rec.Services,
		Request:  rec.Request,
	}
	return true
}

// Remaining returns the number of unread records.
func (r *Replayer) Remaining() int { return len(r.recs) - r.next }

// Rewind restarts the replay from the first record.
func (r *Replayer) Rewind() { r.next = 0 }

// Stats summarizes a trace.
type Stats struct {
	Queries      int
	Tasks        int
	DurationMs   float64 // last arrival - first arrival
	MeanFanout   float64
	MeanService  float64
	P99Service   float64
	ClassCounts  map[int]int
	FanoutCounts map[int]int
}

// Summarize computes trace statistics.
func Summarize(recs []Record) (Stats, error) {
	if len(recs) == 0 {
		return Stats{}, fmt.Errorf("trace: empty trace")
	}
	s := Stats{
		Queries:      len(recs),
		ClassCounts:  make(map[int]int),
		FanoutCounts: make(map[int]int),
	}
	var svcSum float64
	var all []float64
	for i := range recs {
		rec := &recs[i]
		s.Tasks += len(rec.Servers)
		s.ClassCounts[rec.Class]++
		s.FanoutCounts[len(rec.Servers)]++
		for _, v := range rec.Services {
			svcSum += v
		}
		all = append(all, rec.Services...)
	}
	s.DurationMs = recs[len(recs)-1].Arrival - recs[0].Arrival
	s.MeanFanout = float64(s.Tasks) / float64(s.Queries)
	s.MeanService = svcSum / float64(s.Tasks)
	e, err := dist.NewECDF(all)
	if err != nil {
		return Stats{}, err
	}
	s.P99Service = e.Quantile(0.99)
	return s, nil
}
