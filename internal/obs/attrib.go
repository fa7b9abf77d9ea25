package obs

import (
	"fmt"
	"math"
	"sort"
)

// Deadline-miss attribution: every completed query reports its latency,
// its SLO, and the identity and time decomposition of its straggler task
// (the one whose completion set the query latency — the paper's "slowest
// task determines the response time"). The Attributor folds these into:
//
//   - per-class slack histograms (slack = SLO - latency; negative slack
//     is an SLO violation),
//   - a miss-cause breakdown: violations whose straggler spent more time
//     queued than in service are queueing-dominated (the scheduler's
//     fault domain), the rest service-dominated (capacity/workload), and
//   - a straggler-server histogram over violations, which points at a
//     slow or overloaded server when misses concentrate.

// QueryOutcome is one completed query's attribution record.
type QueryOutcome struct {
	QueryID   int64
	Class     int
	Fanout    int
	LatencyMs float64
	SLOMs     float64
	// Straggler identifies the task that finished last.
	StragglerTask   int32
	StragglerServer int32
	// StragglerWaitMs is the straggler's pre-dequeuing time t_pr;
	// StragglerServiceMs its post-queuing time t_po.
	StragglerWaitMs    float64
	StragglerServiceMs float64
}

// Attributor accumulates per-query outcomes. Not safe for concurrent use
// (the simulator is single-threaded; the testbed locks around it). A nil
// *Attributor is the disabled state: Observe no-ops.
type Attributor struct {
	total   int
	misses  int
	byClass []classAccum
	// stragglerMiss[server] counts violations whose straggler ran there.
	stragglerMiss []int
}

type classAccum struct {
	queries          int
	misses           int
	queueDominated   int
	serviceDominated int
	slack            SlackHist
	missQueueMs      float64 // summed straggler wait over misses
	missServiceMs    float64 // summed straggler service over misses
}

// NewAttributor returns an empty attributor.
func NewAttributor() *Attributor { return &Attributor{} }

// Observe folds one completed query in. Safe on a nil receiver (no-op).
func (a *Attributor) Observe(o QueryOutcome) {
	if a == nil {
		return
	}
	for len(a.byClass) <= o.Class {
		a.byClass = append(a.byClass, classAccum{})
	}
	c := &a.byClass[o.Class]
	a.total++
	c.queries++
	c.slack.Observe(o.SLOMs - o.LatencyMs)
	if o.LatencyMs <= o.SLOMs {
		return
	}
	a.misses++
	c.misses++
	c.missQueueMs += o.StragglerWaitMs
	c.missServiceMs += o.StragglerServiceMs
	if o.StragglerWaitMs >= o.StragglerServiceMs {
		c.queueDominated++
	} else {
		c.serviceDominated++
	}
	if s := int(o.StragglerServer); s >= 0 {
		for len(a.stragglerMiss) <= s {
			a.stragglerMiss = append(a.stragglerMiss, 0)
		}
		a.stragglerMiss[s]++
	}
}

// Reset discards all accumulated outcomes, keeping capacity.
func (a *Attributor) Reset() {
	if a == nil {
		return
	}
	a.total, a.misses = 0, 0
	for i := range a.byClass {
		a.byClass[i] = classAccum{}
	}
	a.byClass = a.byClass[:0]
	for i := range a.stragglerMiss {
		a.stragglerMiss[i] = 0
	}
}

// ClassAttribution is one class's attribution summary.
type ClassAttribution struct {
	Class            int
	Queries          int
	Misses           int
	QueueDominated   int     // misses with straggler wait >= service
	ServiceDominated int     // misses with straggler service > wait
	MeanMissQueueMs  float64 // mean straggler wait over misses
	MeanMissServeMs  float64 // mean straggler service over misses
	SlackP1Ms        float64 // 1st-percentile slack (most violated)
	SlackP50Ms       float64
	Slack            SlackHist
}

// ServerMisses counts one server's appearances as a violating straggler.
type ServerMisses struct {
	Server int
	Misses int
}

// Attribution is the rendered miss-attribution report.
type Attribution struct {
	Total   int
	Misses  int
	ByClass []ClassAttribution // dense by class, classes with queries only
	// Stragglers lists servers by violating-straggler count, descending
	// (ties by server index), capped at the worst 8.
	Stragglers []ServerMisses
}

// MissRatio returns the fraction of observed queries that violated their
// SLO.
func (r *Attribution) MissRatio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Total)
}

// Report renders the accumulated state. Safe on a nil receiver (empty
// report).
func (a *Attributor) Report() *Attribution {
	r := &Attribution{}
	if a == nil {
		return r
	}
	r.Total, r.Misses = a.total, a.misses
	for class := range a.byClass {
		c := &a.byClass[class]
		if c.queries == 0 {
			continue
		}
		ca := ClassAttribution{
			Class:            class,
			Queries:          c.queries,
			Misses:           c.misses,
			QueueDominated:   c.queueDominated,
			ServiceDominated: c.serviceDominated,
			SlackP1Ms:        c.slack.Quantile(0.01),
			SlackP50Ms:       c.slack.Quantile(0.50),
			Slack:            c.slack,
		}
		if c.misses > 0 {
			ca.MeanMissQueueMs = c.missQueueMs / float64(c.misses)
			ca.MeanMissServeMs = c.missServiceMs / float64(c.misses)
		}
		r.ByClass = append(r.ByClass, ca)
	}
	for s, n := range a.stragglerMiss {
		if n > 0 {
			r.Stragglers = append(r.Stragglers, ServerMisses{Server: s, Misses: n})
		}
	}
	sort.SliceStable(r.Stragglers, func(i, j int) bool {
		if r.Stragglers[i].Misses != r.Stragglers[j].Misses {
			return r.Stragglers[i].Misses > r.Stragglers[j].Misses
		}
		return r.Stragglers[i].Server < r.Stragglers[j].Server
	})
	if len(r.Stragglers) > 8 {
		r.Stragglers = r.Stragglers[:8]
	}
	return r
}

// SlackHist parameters: symmetric log-spaced buckets over |slack| in
// [slackMinMs, slackMaxMs) at slackPerDecade buckets per decade, one
// near-zero bucket for |slack| < slackMinMs, and clamping edge buckets.
const (
	slackMinMs     = 0.1
	slackMaxMs     = 1e5
	slackPerDecade = 4
	slackDecades   = 6 // log10(slackMaxMs / slackMinMs)
	slackSide      = slackDecades * slackPerDecade
	slackBuckets   = 2*slackSide + 1 // negative side, zero bucket, positive side
)

// SlackHist is a fixed-size signed log-bucket histogram of deadline slack
// (SLO - latency, ms). It is a value type with a fixed array backing, so
// embedding and copying never allocate.
type SlackHist struct {
	counts [slackBuckets]int
	total  int
}

// slackBucket maps a slack value onto its bucket index: bucket slackSide
// holds |v| < slackMinMs; positive values fill higher buckets, negative
// lower.
func slackBucket(v float64) int {
	mag := math.Abs(v)
	if mag < slackMinMs {
		return slackSide
	}
	k := int(math.Log10(mag/slackMinMs) * slackPerDecade)
	if k >= slackSide-1 {
		k = slackSide - 1
	}
	if v > 0 {
		return slackSide + 1 + k
	}
	return slackSide - 1 - k
}

// slackEdges returns bucket i's [lo, hi) range in slack ms.
func slackEdges(i int) (lo, hi float64) {
	edge := func(k int) float64 { // positive-side magnitude edge k
		return slackMinMs * math.Pow(10, float64(k)/slackPerDecade)
	}
	switch {
	case i == slackSide:
		return -slackMinMs, slackMinMs
	case i > slackSide:
		k := i - slackSide - 1
		return edge(k), edge(k + 1)
	default:
		k := slackSide - 1 - i
		return -edge(k + 1), -edge(k)
	}
}

// Observe records one slack value.
func (h *SlackHist) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[slackBucket(v)]++
	h.total++
}

// Count returns the number of observed values.
func (h *SlackHist) Count() int { return h.total }

// NegativeCount returns how many observations fell in strictly negative
// buckets (slack below -slackMinMs, i.e. clear SLO violations).
func (h *SlackHist) NegativeCount() int {
	n := 0
	for i := 0; i < slackSide; i++ {
		n += h.counts[i]
	}
	return n
}

// Quantile returns the p-quantile slack, linearly interpolated within its
// bucket. Empty histograms return 0.
func (h *SlackHist) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.total)
	cum := 0.0
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= target {
			lo, hi := slackEdges(i)
			frac := (target - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += float64(n)
	}
	_, hi := slackEdges(slackBuckets - 1)
	return hi
}

// String renders a compact one-line summary for logs.
func (h *SlackHist) String() string {
	return fmt.Sprintf("slack{n=%d, p1=%.1fms, p50=%.1fms, neg=%d}",
		h.total, h.Quantile(0.01), h.Quantile(0.50), h.NegativeCount())
}
