package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpansPerLane bounds what one goroutine records: sched-closed issues
// over a million calls a run, and a trace file of that size helps
// nobody. Spans past the cap are counted, not kept.
const maxSpansPerLane = 200_000

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch. parent is the global index of the
// enclosing span or -1; query groups the spans of one request.
type span struct {
	name       string
	start, end int64
	parent     int
	query      int64
}

// tracer records spans from the benchmark's own files, around the calls
// into each layer. A nil *tracer (the untraced run) records nothing, and
// so does the nil *lane it hands out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

// lane is the span buffer of one goroutine; only that goroutine appends
// to it, so recording takes no lock.
type lane struct {
	name    string
	epoch   time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{name: name, epoch: t.epoch}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// add records a finished call and returns its index within the lane
// (for use as a local parent), or -1 when nothing was recorded.
func (l *lane) add(name string, start, end time.Time, parent int, query int64) int {
	if l == nil {
		return -1
	}
	if len(l.spans) >= maxSpansPerLane {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{
		name:   name,
		start:  start.Sub(l.epoch).Nanoseconds(),
		end:    end.Sub(l.epoch).Nanoseconds(),
		parent: parent,
		query:  query,
	})
	return len(l.spans) - 1
}

// reserve allocates the lane's whole buffer up front, for goroutines
// whose span rate is high enough that growing it would show in the
// measurement.
func (l *lane) reserve() {
	if l != nil && cap(l.spans) < maxSpansPerLane {
		l.spans = append(make([]span, 0, maxSpansPerLane), l.spans...)
	}
}

func (l *lane) len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// adopt records a span that encloses spans already recorded from index
// from on, and makes it the parent of those that have none. A caller
// that cannot open its span first (the callee runs the children) closes
// it this way.
func (l *lane) adopt(name string, start, end time.Time, from int) {
	id := l.add(name, start, end, -1, -1)
	for i := from; i < id; i++ {
		if l.spans[i].parent < 0 {
			l.spans[i].parent = id
		}
	}
}

// timed runs fn under a span.
func (l *lane) timed(name string, parent int, query int64, fn func()) int {
	start := time.Now()
	fn()
	return l.add(name, start, time.Now(), parent, query)
}

// layerRow is one line of the layer table: how often a span name
// occurred, its total time, and its self time — the total minus the part
// its child spans cover.
type layerRow struct {
	name        string
	count       int
	totalMs     float64
	selfMs      float64
	medianUs    float64
	durationsUs []float64
}

// flatten merges the lanes into one span list with global parent
// indices. Lane-local parents are rebased; spans whose parent was
// dropped keep -1.
func (t *tracer) flatten() (all []span, laneOf []int, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for li, l := range t.lanes {
		base := len(all)
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
			laneOf = append(laneOf, li)
		}
		dropped += l.dropped
	}
	return all, laneOf, dropped
}

// layerTable computes per-name totals and self times. Children are
// clipped to their parent and merged before subtraction, so overlapping
// children are not subtracted twice.
func layerTable(all []span) []layerRow {
	children := make(map[int][]int)
	for i, s := range all {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := make(map[string]*layerRow)
	for i, s := range all {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			rows[s.name] = r
		}
		dur := s.end - s.start
		covered := int64(0)
		if kids := children[i]; len(kids) > 0 {
			sort.Slice(kids, func(a, b int) bool { return all[kids[a]].start < all[kids[b]].start })
			cursor := s.start
			for _, k := range kids {
				lo, hi := max(all[k].start, cursor), min(all[k].end, s.end)
				if hi > lo {
					covered += hi - lo
					cursor = hi
				}
			}
		}
		r.count++
		r.totalMs += float64(dur) / 1e6
		r.selfMs += float64(dur-covered) / 1e6
		r.durationsUs = append(r.durationsUs, float64(dur)/1e3)
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.medianUs = median(r.durationsUs)
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].totalMs > out[b].totalMs })
	return out
}

// write dumps the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) and prints the layer table to w.
func (t *tracer) write(path string, table *os.File) error {
	all, laneOf, dropped := t.flatten()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ms","otherData":{"dropped_spans":%d},"traceEvents":[`, dropped)
	for i, s := range all {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"query":%d}}`,
			s.name, laneOf[i], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.query)
	}
	t.mu.Lock()
	for li, l := range t.lanes {
		fmt.Fprintf(bw, ",\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, li, l.name)
	}
	t.mu.Unlock()
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(table, "# layer table (%d spans, %d dropped past the per-lane cap) -> %s\n", len(all), dropped, path)
	fmt.Fprintf(table, "# %-22s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_us")
	for _, r := range layerTable(all) {
		fmt.Fprintf(table, "# %-22s %9d %12.2f %12.2f %12.2f\n", r.name, r.count, r.totalMs, r.selfMs, r.medianUs)
	}
	return nil
}

// durationsUs returns the durations (µs) of the spans with the given
// name that satisfy keep.
func durationsUs(all []span, name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range all {
		if s.name == name && keep(s) {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}
