package saas

import (
	"fmt"
	"math/rand"
	"time"

	"tailguard/internal/workload"
)

// Use-case classes of Section IV.E.
const (
	// ClassA (50% of queries): individual-device monitoring, fanout 1,
	// 80% of it concentrated on the Server-room cluster. SLO 800 ms.
	ClassA = 0
	// ClassB (40%): area overview, fanout 4 — one random node per
	// cluster. SLO 1300 ms.
	ClassB = 1
	// ClassC (10%): long-term records from all 32 nodes, fanout 32.
	// SLO 1800 ms.
	ClassC = 2
)

// PaperClassSLOsMs are the published 99th-percentile SLOs per class (ms).
var PaperClassSLOsMs = [3]float64{800, 1300, 1800}

// paperClassWeights is the published query mix.
var paperClassWeights = [3]float64{0.5, 0.4, 0.1}

// serverRoomBias is the fraction of class-A queries landing on the
// Server-room cluster.
const serverRoomBias = 0.8

// SaSClasses builds the three-class set with SLOs divided by the
// time-compression factor.
func SaSClasses(compression float64) (*workload.ClassSet, error) {
	if compression < 1 {
		return nil, fmt.Errorf("saas: compression must be >= 1, got %v", compression)
	}
	classes := make([]workload.Class, 3)
	names := [3]string{"A", "B", "C"}
	for i := range classes {
		classes[i] = workload.Class{
			ID:         i,
			Name:       names[i],
			SLOMs:      PaperClassSLOsMs[i] / compression,
			Percentile: 0.99,
			Weight:     paperClassWeights[i],
		}
	}
	return workload.NewClassSet(classes)
}

// QueryGen generates the SaS use-case query stream: classes, placements,
// and per-task retrieval windows (1-30 days of consecutive records
// starting at a random time in the store span).
type QueryGen struct {
	rng        *rand.Rand
	classes    *workload.ClassSet
	storeFirst int64 // first retrievable timestamp (unix s)
	storeLast  int64
	nextID     int64
}

// NewQueryGen builds a generator over the given store span.
func NewQueryGen(classes *workload.ClassSet, storeFirst, storeLast int64, seed int64) (*QueryGen, error) {
	if classes == nil || classes.Len() != 3 {
		return nil, fmt.Errorf("saas: query generator needs the 3-class SaS set")
	}
	const maxDays = 30
	if storeLast-storeFirst < maxDays*24*3600 {
		return nil, fmt.Errorf("saas: store span too short for %d-day retrievals", maxDays)
	}
	return &QueryGen{
		rng:        rand.New(rand.NewSource(seed)),
		classes:    classes,
		storeFirst: storeFirst,
		storeLast:  storeLast,
	}, nil
}

// Next generates one query (arrival timing is the caller's concern).
func (g *QueryGen) Next() (Query, error) {
	class := g.classes.Sample(g.rng)
	var nodes []int
	switch class {
	case ClassA:
		var node int
		if g.rng.Float64() < serverRoomBias {
			node = g.rng.Intn(NodesPerCluster) // server-room nodes are 0-7
		} else {
			node = NodesPerCluster + g.rng.Intn(TotalNodes-NodesPerCluster)
		}
		nodes = []int{node}
	case ClassB:
		nodes = make([]int, 4)
		for c := 0; c < 4; c++ {
			nodes[c] = c*NodesPerCluster + g.rng.Intn(NodesPerCluster)
		}
	case ClassC:
		nodes = make([]int, TotalNodes)
		for i := range nodes {
			nodes[i] = i
		}
	default:
		return Query{}, fmt.Errorf("saas: unexpected class %d", class)
	}

	q := Query{
		ID:     g.nextID,
		Class:  class,
		Nodes:  nodes,
		FromTs: make([]int64, len(nodes)),
		ToTs:   make([]int64, len(nodes)),
	}
	g.nextID++
	for i := range nodes {
		days := 1 + g.rng.Intn(30)
		span := int64(days) * 24 * 3600
		latestStart := g.storeLast - span
		start := g.storeFirst + g.rng.Int63n(latestStart-g.storeFirst+1)
		q.FromTs[i] = start
		q.ToTs[i] = start + span
	}
	return q, nil
}

// expectedServerRoomTasksPerQuery returns the mean number of tasks a query
// places on the Server-room cluster under the paper's mix:
// 0.5*0.8 (class A) + 0.4*1 (class B) + 0.1*8 (class C) = 1.6.
func expectedServerRoomTasksPerQuery() float64 {
	return paperClassWeights[ClassA]*serverRoomBias +
		paperClassWeights[ClassB]*1 +
		paperClassWeights[ClassC]*NodesPerCluster
}

// RateForServerRoomLoad converts a target Server-room cluster utilization
// into a query arrival rate (queries per compressed ms): the cluster has
// NodesPerCluster servers with the given mean task occupancy.
func RateForServerRoomLoad(load, meanServerRoomTaskMs float64) (float64, error) {
	if load <= 0 || load > 1.5 {
		return 0, fmt.Errorf("saas: load %v outside (0, 1.5]", load)
	}
	if meanServerRoomTaskMs <= 0 {
		return 0, fmt.Errorf("saas: mean task time must be positive, got %v", meanServerRoomTaskMs)
	}
	return load * NodesPerCluster / (expectedServerRoomTasksPerQuery() * meanServerRoomTaskMs), nil
}

// ArrivalSchedule precomputes Poisson arrival offsets (compressed ms from
// start) for n queries at the given rate.
func ArrivalSchedule(n int, ratePerMs float64, seed int64) ([]time.Duration, error) {
	if n < 1 {
		return nil, fmt.Errorf("saas: need >= 1 arrival, got %d", n)
	}
	p, err := workload.NewPoisson(ratePerMs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += p.NextGap(rng)
		out[i] = time.Duration(t * float64(time.Millisecond))
	}
	return out, nil
}
