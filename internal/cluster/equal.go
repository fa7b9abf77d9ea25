// Result equality: a bit-exact comparison used by the sharded-core
// equivalence gates (golden tests, the shardscale experiment, and `make
// shard-smoke`). Two results are equal only if every counter, every
// float64 aggregate (compared by bit pattern, so the order-sensitive
// floating-point sums must have been accumulated in the same order), and
// every recorder's full sample sequence — including breakdown key
// insertion order — match.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"tailguard/internal/metrics"
)

// eqF compares two float64s by bit pattern.
func eqF(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// eqRecorder compares two recorders' sample sequences bit-exactly.
func eqRecorder(name string, a, b *metrics.LatencyRecorder) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: nil mismatch", name)
	}
	if a == nil {
		return nil
	}
	as, bs := a.Samples(), b.Samples()
	if len(as) != len(bs) {
		return fmt.Errorf("%s: %d samples vs %d", name, len(as), len(bs))
	}
	for i := range as {
		if !eqF(as[i], bs[i]) {
			return fmt.Errorf("%s: sample %d: %v vs %v", name, i, as[i], bs[i])
		}
	}
	return nil
}

// eqBreakdown compares two breakdowns: same key insertion order, same
// sample sequences per key.
func eqBreakdown[K comparable](name string, a, b *metrics.Breakdown[K]) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: nil mismatch", name)
	}
	if a == nil {
		return nil
	}
	var ak, bk []K
	a.Each(func(k K, _ *metrics.LatencyRecorder) { ak = append(ak, k) })
	b.Each(func(k K, _ *metrics.LatencyRecorder) { bk = append(bk, k) })
	if len(ak) != len(bk) {
		return fmt.Errorf("%s: %d keys vs %d", name, len(ak), len(bk))
	}
	for i := range ak {
		if ak[i] != bk[i] {
			return fmt.Errorf("%s: key %d: %v vs %v (insertion order)", name, i, ak[i], bk[i])
		}
		if err := eqRecorder(fmt.Sprintf("%s[%v]", name, ak[i]), a.Recorder(ak[i]), b.Recorder(bk[i])); err != nil {
			return err
		}
	}
	return nil
}

// eqIntMap compares two int->int maps. Keys are visited in sorted order
// so the first-divergence error message is itself deterministic.
func eqIntMap(name string, a, b map[int]int) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: nil mismatch", name)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d entries vs %d", name, len(a), len(b))
	}
	keys := make([]int, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Errorf("%s[%d]: %d vs %d", name, k, a[k], bv)
		}
	}
	return nil
}

// Equal reports whether res and other are bit-identical, returning a
// descriptive error naming the first divergence (nil means equal). It is
// the equivalence oracle for the sharded core: a sharded run must compare
// Equal to the sequential run of the same config.
func (res *Result) Equal(other *Result) error {
	if (res == nil) != (other == nil) {
		return fmt.Errorf("nil result mismatch")
	}
	if res == nil {
		return nil
	}
	if res.Spec != other.Spec {
		return fmt.Errorf("Spec: %q vs %q", res.Spec, other.Spec)
	}
	if res.Stopped != other.Stopped {
		return fmt.Errorf("Stopped: %v vs %v", res.Stopped, other.Stopped)
	}
	ints := [...]struct {
		name string
		a, b int
	}{
		{"Queries", res.Queries, other.Queries},
		{"Injected", res.Injected, other.Injected},
		{"Admitted", res.Admitted, other.Admitted},
		{"Rejected", res.Rejected, other.Rejected},
		{"Completed", res.Completed, other.Completed},
		{"Failed", res.Failed, other.Failed},
		{"LostTasks", res.LostTasks, other.LostTasks},
		{"Retries", res.Retries, other.Retries},
		{"HedgesIssued", res.HedgesIssued, other.HedgesIssued},
		{"HedgeWins", res.HedgeWins, other.HedgeWins},
		{"CreditDeferred", res.CreditDeferred, other.CreditDeferred},
		{"Throttled", res.Throttled, other.Throttled},
		{"ControlTicks", res.ControlTicks, other.ControlTicks},
	}
	for _, c := range ints {
		if c.a != c.b {
			return fmt.Errorf("%s: %d vs %d", c.name, c.a, c.b)
		}
	}
	floats := [...]struct {
		name string
		a, b float64
	}{
		{"Duration", res.Duration, other.Duration},
		{"Utilization", res.Utilization, other.Utilization},
		{"OfferedLoad", res.OfferedLoad, other.OfferedLoad},
		{"TaskMissRatio", res.TaskMissRatio, other.TaskMissRatio},
	}
	for _, c := range floats {
		if !eqF(c.a, c.b) {
			return fmt.Errorf("%s: %v vs %v (bits %x vs %x)", c.name, c.a, c.b,
				math.Float64bits(c.a), math.Float64bits(c.b))
		}
	}
	if err := eqRecorder("Overall", res.Overall, other.Overall); err != nil {
		return err
	}
	if err := eqRecorder("TaskWait", res.TaskWait, other.TaskWait); err != nil {
		return err
	}
	if err := eqBreakdown("ByClass", res.ByClass, other.ByClass); err != nil {
		return err
	}
	if err := eqBreakdown("ByFanout", res.ByFanout, other.ByFanout); err != nil {
		return err
	}
	if err := eqBreakdown("ByType", res.ByType, other.ByType); err != nil {
		return err
	}
	if err := eqBreakdown("Timeline", res.Timeline, other.Timeline); err != nil {
		return err
	}
	if err := eqIntMap("TimelineAdmitted", res.TimelineAdmitted, other.TimelineAdmitted); err != nil {
		return err
	}
	return eqIntMap("TimelineRejected", res.TimelineRejected, other.TimelineRejected)
}
