package experiment

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tailguard/internal/cluster"
	"tailguard/internal/metrics"
	"tailguard/internal/parallel"
	"tailguard/internal/workload"
)

// arenaPool shares simulation arenas (event heaps, task/state freelists,
// queues, result recorders) across max-load probes. Probes run
// concurrently on the worker pool, so distribution is sync.Pool's job;
// each arena is used by exactly one probe at a time. The probes' Results
// are released back into their arenas once compliance is read, which is
// what makes repeated probing allocation-free in steady state.
var arenaPool = sync.Pool{New: func() any { return cluster.NewArena() }}

// MaxLoadBounds brackets the maximum-load binary search. The paper's case
// studies choose SLOs so the answer lands in 20-60% load; the default
// bracket is generous around that.
type MaxLoadBounds struct {
	Lo, Hi float64
}

// DefaultMaxLoadBounds covers every case study in the paper.
var DefaultMaxLoadBounds = MaxLoadBounds{Lo: 0.05, Hi: 0.95}

func (b MaxLoadBounds) validate() error {
	if b.Lo <= 0 || b.Hi <= b.Lo {
		return fmt.Errorf("experiment: invalid bounds [%v, %v]", b.Lo, b.Hi)
	}
	return nil
}

func validateTol(tol float64) error {
	if tol <= 0 {
		return fmt.Errorf("experiment: tolerance must be positive, got %v", tol)
	}
	return nil
}

// MaxLoad binary-searches the highest offered load at which every query
// type still meets its tail-latency SLO (the paper's "maximum load").
// probe must run one simulation at the given load and report compliance.
// The search maintains the invariant lo passes / hi fails and returns lo
// once hi-lo <= tol. It is the sequential reference the lockstep search
// (bisect) is tested against.
func MaxLoad(bounds MaxLoadBounds, tol float64, probe func(load float64) (bool, error)) (float64, error) {
	if err := validateTol(tol); err != nil {
		return 0, err
	}
	if err := bounds.validate(); err != nil {
		return 0, err
	}
	okLo, err := probe(bounds.Lo)
	if err != nil {
		return 0, err
	}
	if !okLo {
		// Even the lightest probed load violates the SLO.
		return 0, nil
	}
	okHi, err := probe(bounds.Hi)
	if err != nil {
		return 0, err
	}
	if okHi {
		return bounds.Hi, nil
	}
	lo, hi := bounds.Lo, bounds.Hi
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// specNode is one node of a speculative bisection tree: the midpoint
// probe at index idx, with subtrees for the bracket that follows if the
// probe passes (pass: lo=mid) or fails (fail: hi=mid).
type specNode struct {
	idx        int
	pass, fail *specNode
}

// buildSpecTree expands the next `depth` levels of the bisection from
// the bracket [lo, hi], appending each midpoint to probes. Midpoints
// are computed with the same (lo+hi)/2 float arithmetic, and expansion
// stops on the same hi-lo <= tol predicate, as MaxLoad's loop — so the
// resolved path through the tree reproduces the sequential probe
// sequence bit for bit.
func buildSpecTree(lo, hi, tol float64, depth int, probes *[]float64) *specNode {
	if depth == 0 || hi-lo <= tol {
		return nil
	}
	mid := (lo + hi) / 2
	n := &specNode{idx: len(*probes)}
	*probes = append(*probes, mid)
	n.pass = buildSpecTree(mid, hi, tol, depth-1, probes)
	n.fail = buildSpecTree(lo, mid, tol, depth-1, probes)
	return n
}

// specDepth picks the speculation depth for a worker count: the largest
// d with 2^d - 1 <= workers, so one round's probe tree roughly fills
// the pool.
func specDepth(workers int) int {
	d := 1
	for d < 16 && (1<<uint(d+1))-1 <= workers {
		d++
	}
	return d
}

// round is the set of distinct probes one round of a group's search
// runs: the group's rows that ask for the same load share one probe.
type round struct {
	loads []float64
	rows  [][]int // per probe, the rows that asked for it, ascending
	index map[float64]int
	ok    [][]bool // per probe, a verdict for each asking row
	errs  []error
}

// ask records that row needs the group's verdict at load.
func (r *round) ask(load float64, row int) {
	j, seen := r.index[load]
	if !seen {
		if r.index == nil {
			r.index = make(map[float64]int)
		}
		j = len(r.loads)
		r.index[load] = j
		r.loads = append(r.loads, load)
		r.rows = append(r.rows, nil)
	}
	r.rows[j] = append(r.rows[j], row)
}

// run executes every probe of the round on the pool. A probe's error is
// kept with it rather than aborting the round, so each row meets exactly
// the errors on its own sequential probe path.
func (r *round) run(pool *parallel.Pool, probe func(load float64, rows []int) ([]bool, error)) {
	type verdicts struct {
		ok  []bool
		err error
	}
	out, _ := parallel.Map(pool, len(r.loads), func(j int) (verdicts, error) {
		ok, err := probe(r.loads[j], r.rows[j])
		return verdicts{ok, err}, nil
	})
	r.ok, r.errs = make([][]bool, len(out)), make([]error, len(out))
	for j, v := range out {
		r.ok[j], r.errs[j] = v.ok, v.err
	}
}

// verdict returns row's verdict from the probe at load.
func (r *round) verdict(load float64, row int) (bool, error) {
	j := r.index[load]
	if r.errs[j] != nil {
		return false, r.errs[j]
	}
	for k, asked := range r.rows[j] {
		if asked == row {
			return r.ok[j][k], nil
		}
	}
	panic("experiment: verdict for a row that did not ask")
}

// firstError keeps the error a row meets earliest in its sequential
// probe order (the depth of the probe within the round), lowest row
// first, so which error a search reports does not depend on how many
// probes ran speculatively.
type firstError struct {
	depth, row int
	err        error
}

func (e *firstError) note(depth, row int, err error) {
	if e.err == nil || depth < e.depth {
		*e = firstError{depth, row, err}
	}
}

// bisect is the one max-load search: MaxLoad's bisection run once per
// row. Rows with the same group read their verdicts off one probe:
// probe(g, load, rows) runs group g at load for the listed rows
// (ascending) and returns their verdicts in that order. Each group is one
// job on the pool, largest first so the jobs left last are short; a
// group searches its rows in lockstep (see lockstep) on its share of the
// workers, which grows as the groups left fall below the worker count:
// a group left running at the end of the search spreads its probes over
// the workers the others have freed, and speculates when it has more
// workers than brackets. A row's verdicts are exact, so its result is
// exactly MaxLoad's with that row's probe, at any worker count. On error
// bisect returns the first failing group's row that met it (see
// firstError).
func bisect(pool *parallel.Pool, bounds MaxLoadBounds, tols []float64, group []int,
	probe func(g int, load float64, rows []int) ([]bool, error)) (loads []float64, errRow int, err error) {
	for _, tol := range tols {
		if err := validateTol(tol); err != nil {
			return nil, -1, err
		}
	}
	if err := bounds.validate(); err != nil {
		return nil, -1, err
	}
	var members [][]int // per group, its rows ascending
	index := map[int]int{}
	for i, g := range group {
		k, seen := index[g]
		if !seen {
			k = len(members)
			index[g] = k
			members = append(members, nil)
		}
		members[k] = append(members[k], i)
	}
	sort.SliceStable(members, func(a, b int) bool { return len(members[a]) > len(members[b]) })
	// A group's share of the workers: one while at least as many groups
	// are left as workers, and an equal split of the workers once fewer
	// are left — all of them are running then, so the shares never add
	// up to more than the pool.
	workers := pool.Workers()
	var left atomic.Int64
	left.Store(int64(len(members)))
	share := func() int { return max(1, workers/int(min(int64(workers), left.Load()))) }
	type outcome struct {
		loads []float64
		row   int
		err   error
	}
	out, _ := parallel.Map(pool, len(members), func(k int) (outcome, error) {
		defer left.Add(-1)
		rows := members[k]
		g := group[rows[0]]
		l, row, err := lockstep(share, bounds, tols, rows, func(load float64, asked []int) ([]bool, error) {
			return probe(g, load, asked)
		})
		return outcome{l, row, err}, nil
	})
	loads = make([]float64, len(group))
	for k, o := range out {
		if o.err != nil {
			return nil, o.row, o.err
		}
		for j, i := range members[k] {
			loads[i] = o.loads[j]
		}
	}
	return loads, -1, nil
}

// lockstep runs the bisection of each of one group's rows (row indices
// into tols, ascending) with every row advancing in lockstep, and
// returns their loads in the same order. Each round gathers the loads the
// undecided rows need — both bracket ends first, then each row's next
// midpoint, or with idle workers the next levels of its bisection tree
// (both outcomes of every midpoint) — and runs each distinct load once on
// as many workers as share reports at the start of the round, speculating
// only as deep as they leave room for. Every pending row advances the
// same number of levels per round and midpoints are dyadic, so two rows
// can only ask for the same load in the same round, from the same
// bracket.
func lockstep(share func() int, bounds MaxLoadBounds, tols []float64, rows []int,
	probe func(load float64, rows []int) ([]bool, error)) (loads []float64, errRow int, err error) {
	n := len(rows)
	loads = make([]float64, n)
	lo, hi := make([]float64, n), make([]float64, n)
	var pending []int // positions in rows still bisecting, ascending
	var e firstError

	// Both ends at once, resolved in MaxLoad's order: an error or failure
	// at Lo wins over anything Hi reports.
	var ends round
	for _, i := range rows {
		ends.ask(bounds.Lo, i)
		ends.ask(bounds.Hi, i)
	}
	ends.run(parallel.NewPool(share()), probe)
	for p, i := range rows {
		ok, err := ends.verdict(bounds.Lo, i)
		if err != nil {
			e.note(0, i, err)
			continue
		}
		if !ok {
			continue // even the lightest load violates the SLO: 0
		}
		if ok, err = ends.verdict(bounds.Hi, i); err != nil {
			e.note(1, i, err)
			continue
		}
		if ok {
			loads[p] = bounds.Hi
			continue
		}
		lo[p], hi[p] = bounds.Lo, bounds.Hi
		if hi[p]-lo[p] > tols[i] {
			pending = append(pending, p)
		} else {
			loads[p] = lo[p]
		}
	}
	if e.err != nil {
		return nil, e.row, e.err
	}

	trees := make([]*specNode, n)
	mids := make([][]float64, n)
	for len(pending) > 0 {
		// Speculate only as deep as the group's share of the workers has
		// room for every bracket in flight.
		brackets := map[float64]bool{}
		for _, p := range pending {
			brackets[lo[p]] = true
		}
		workers := share()
		depth := specDepth(workers / len(brackets))
		var r round
		for _, p := range pending {
			mids[p] = mids[p][:0]
			trees[p] = buildSpecTree(lo[p], hi[p], tols[rows[p]], depth, &mids[p])
			for _, m := range mids[p] {
				r.ask(m, rows[p])
			}
		}
		r.run(parallel.NewPool(workers), probe)
		next := pending[:0]
		for _, p := range pending {
			for nd, d := trees[p], 0; nd != nil; d++ {
				mid := mids[p][nd.idx]
				ok, err := r.verdict(mid, rows[p])
				if err != nil {
					e.note(d, rows[p], err)
					break
				}
				if ok {
					lo[p], nd = mid, nd.pass
				} else {
					hi[p], nd = mid, nd.fail
				}
			}
			if hi[p]-lo[p] > tols[rows[p]] {
				next = append(next, p)
			} else {
				loads[p] = lo[p]
			}
		}
		if e.err != nil {
			return nil, e.row, e.err
		}
		pending = next
	}
	return loads, -1, nil
}

// SpeculativeMaxLoad is MaxLoad with speculative parallel probing: the
// one-row case of the lockstep search (see bisect). Each round expands
// the next levels of the bisection tree (both outcomes of every pending
// midpoint), probes all of them concurrently on the pool, then resolves
// the bracket by walking the tree exactly as the sequential search
// would. Wall-clock shrinks from one probe per bisection step to one
// round per `depth` steps; the returned load (and any returned error) is
// identical to MaxLoad's because probes are pure functions of the load
// and the resolved path replays the sequential probe sequence.
func SpeculativeMaxLoad(pool *parallel.Pool, bounds MaxLoadBounds, tol float64, probe func(load float64) (bool, error)) (float64, error) {
	loads, _, err := bisect(pool, bounds, []float64{tol}, []int{0}, func(_ int, load float64, _ []int) ([]bool, error) {
		ok, err := probe(load)
		return []bool{ok}, err
	})
	if err != nil {
		return 0, err
	}
	return loads[0], nil
}

// ScenarioMaxLoad runs the max-load search over copies of the scenario
// with varying load, using the scenario's class SLOs for compliance: the
// one-row case of searchMaxLoads, on the fidelity's worker pool. The
// result is identical at every worker count.
func ScenarioMaxLoad(s Scenario, bounds MaxLoadBounds) (float64, error) {
	loads, err := searchMaxLoads(s.Fidelity.pool(), []Scenario{s}, bounds)
	if err != nil {
		return 0, err
	}
	return loads[0], nil
}

// searchMaxLoads finds every row scenario's maximum load (the highest
// load at which each of its query types meets its class SLO, to its
// fidelity's MinSamples and LoadTol) with one lockstep search, and
// returns them in row order. Two things keep it from simulating what
// cannot change a verdict:
//
//   - Rows that are probeTwins (no admission control, differing only in
//     SLOs the policy cannot tell apart) share every probe: one run per
//     load answers all of them.
//   - A probe stops as soon as it is certain to fail for every row that
//     asked for it (cluster.EarlyStop). Certainty comes from the row's
//     census: each type's final sample count, counted once per search
//     without simulating. A probe that passes for any of its rows can
//     never stop, so every max load is exactly what full runs give.
func searchMaxLoads(pool *parallel.Pool, rows []Scenario, bounds MaxLoadBounds) ([]float64, error) {
	if err := bounds.validate(); err != nil {
		return nil, err
	}
	tols := make([]float64, len(rows))
	for i := range rows {
		s := rows[i]
		s.Load = bounds.Lo
		if err := s.validate(); err != nil {
			return nil, err
		}
		tols[i] = s.Fidelity.LoadTol
	}
	group := probeGroups(rows)
	plans, err := planRows(rows, bounds.Lo)
	if err != nil {
		return nil, err
	}
	loads, bad, err := bisect(pool, bounds, tols, group, func(_ int, load float64, asked []int) ([]bool, error) {
		ok, _, err := probeRows(rows, plans, asked, load, Scenario.Build)
		return ok, err
	})
	if err != nil {
		if bad < 0 {
			return nil, err
		}
		s := rows[bad]
		return nil, fmt.Errorf("experiment: max-load search for %s %s (first SLO %v ms, seed %d): %w",
			s.Workload.Name, s.Spec.Name, s.Classes.Classes()[0].SLOMs, s.Fidelity.Seed, err)
	}
	return loads, nil
}

// probeGroups names each row's probe group: the first row it is a
// probeTwin of, or itself.
func probeGroups(rows []Scenario) []int {
	group := make([]int, len(rows))
	for i := range rows {
		group[i] = i
		for j := 0; j < i; j++ {
			if probeTwins(rows[j], rows[i]) {
				group[i] = group[j]
				break
			}
		}
	}
	return group
}

// rowPlan is what a search works out for a row before probing it: its
// early-stop check and the stride of its tables (a nil Quota means the
// row's probes never stop early).
type rowPlan struct {
	check  cluster.SLOCheck
	stride int
}

// planRows builds each row's plan. The early-stop check comes from the
// row's census; rows whose sample counts a run cannot promise in advance
// — admission control rejects queries, the sharded core takes no early
// stop — get none, and share no deadline probes either (probeTwins).
// Rows drawing the same stream share one census.
func planRows(rows []Scenario, load float64) ([]rowPlan, error) {
	plans := make([]rowPlan, len(rows))
	counts := make([][]int, len(rows))
	for i, s := range rows {
		if s.AdmissionWindowMs > 0 || s.Shards > 1 {
			continue
		}
		stride := s.Fanout.Max() + 1
		for j := 0; j < i && counts[i] == nil; j++ {
			if counts[j] != nil && sameStream(rows[j], s) {
				counts[i] = counts[j]
			}
		}
		if counts[i] == nil {
			s.Load = load
			c, err := s.census()
			if err != nil {
				return nil, err
			}
			counts[i] = c
		}
		check := cluster.SLOCheck{SLOMs: make([]float64, s.Classes.Len()), Quota: make([]int32, len(counts[i]))}
		for _, c := range s.Classes.Classes() {
			check.SLOMs[c.ID] = c.SLOMs
			for f := 0; f < stride; f++ {
				if n := counts[i][c.ID*stride+f]; n >= s.Fidelity.MinSamples {
					check.Quota[c.ID*stride+f] = int32(metrics.ExceedQuota(n, c.Percentile))
				}
			}
		}
		plans[i] = rowPlan{check: check, stride: stride}
	}
	return plans, nil
}

// probeRows runs one probe at load for the asked rows, which share it,
// and returns each row's verdict and whether the run stopped early; build
// turns the first asked row, at load, into the run (Scenario.Build). The
// run stops early once it is certain to fail for all of them, and a
// stopped run fails every one.
func probeRows(rows []Scenario, plans []rowPlan, asked []int, load float64,
	build func(Scenario) (cluster.Config, error)) (ok []bool, stopped bool, err error) {
	s := rows[asked[0]]
	s.Load = load
	cfg, err := build(s)
	if err != nil {
		return nil, false, err
	}
	if p := plans[asked[0]]; p.check.Quota != nil {
		es := &cluster.EarlyStop{Stride: p.stride, Checks: make([]cluster.SLOCheck, len(asked))}
		for k, i := range asked {
			es.Checks[k] = plans[i].check
		}
		cfg.EarlyStop = es
	}
	a := arenaPool.Get().(*cluster.Arena)
	defer arenaPool.Put(a)
	cfg.Arena = a
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, false, err
	}
	defer a.Release(res)
	ok = make([]bool, len(asked))
	if res.Stopped {
		return ok, true, nil // every check failed
	}
	sets := make([]*workload.ClassSet, len(asked))
	for k, i := range asked {
		sets[k] = rows[i].Classes
	}
	if err := res.MeetsSLOsEach(sets, s.Fidelity.MinSamples, ok); err != nil {
		return nil, false, err
	}
	return ok, false, nil
}

// classSetForPaper returns the class configurations the paper's case
// studies use: one class, or two classes with the low class at ratio times
// the high-class SLO.
func classSetForPaper(sloMs float64, classesN int, ratio float64) (*workload.ClassSet, error) {
	switch classesN {
	case 1:
		return workload.SingleClass(sloMs)
	case 2:
		return workload.TwoClasses(sloMs, ratio)
	default:
		// n classes with SLOs spaced linearly from slo to ratio*slo.
		if classesN < 1 {
			return nil, fmt.Errorf("experiment: need >= 1 class, got %d", classesN)
		}
		classes := make([]workload.Class, classesN)
		for i := range classes {
			frac := float64(i) / float64(classesN-1)
			classes[i] = workload.Class{
				ID:         i,
				Name:       fmt.Sprintf("class-%d", i),
				SLOMs:      sloMs * (1 + frac*(ratio-1)),
				Percentile: 0.99,
				Weight:     1,
			}
		}
		return workload.NewClassSet(classes)
	}
}
