package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Chrome trace_event export: the buffered lifecycle events rendered as a
// JSON object loadable in chrome://tracing / Perfetto. The mapping:
//
//   - query-level events (arrival, deadline, reject) become instant
//     events on a "queries" track (tid 0);
//   - a query completion becomes a complete slice spanning the query's
//     latency on the queries track;
//   - a task dispatch becomes a complete slice spanning the task's
//     queue wait on its server's track (tid = server+1), and a service
//     end a slice spanning its service time;
//   - queue-depth samples become counter events per server.
//
// Timestamps are caller-domain milliseconds converted to trace
// microseconds. Output is deterministic: events are ordered by
// (time, record sequence) and every field is written in a fixed order.

// traceTimeScale converts event ms to Chrome trace microseconds.
const traceTimeScale = 1000

// WriteChromeTrace writes events as Chrome trace_event JSON. The input
// slice is not modified; events are sorted by (TimeMs, Seq) for output.
func WriteChromeTrace(w io.Writer, events []Event) error {
	ordered := append([]Event(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].TimeMs != ordered[j].TimeMs {
			return ordered[i].TimeMs < ordered[j].TimeMs
		}
		return ordered[i].Seq < ordered[j].Seq
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	// bufio latches the first write error; the final Flush reports it.
	emit := func(line string) {
		if !first {
			_, _ = bw.WriteString(",\n")
		}
		first = false
		_, _ = bw.WriteString(line)
	}

	// Track-naming metadata: the queries track plus one track per server
	// that appears in the event stream.
	emit(`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"queries"}}`)
	servers := map[int32]bool{}
	for _, e := range ordered {
		// KindControl's Server field is an active-server count, not a
		// server identity; it names no track.
		if e.Kind == KindControl {
			continue
		}
		if e.Server >= 0 && !servers[e.Server] {
			servers[e.Server] = true
		}
	}
	ids := make([]int32, 0, len(servers))
	for s := range servers {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, s := range ids {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"server %d"}}`, s+1, s))
	}

	for _, e := range ordered {
		ts := e.TimeMs * traceTimeScale
		switch e.Kind {
		case KindArrival:
			emit(fmt.Sprintf(`{"name":"arrival q%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":0,"args":{"class":%d,"fanout":%s}}`,
				e.QueryID, traceNum(ts), e.Class, traceNum(e.Value)))
		case KindDeadline:
			emit(fmt.Sprintf(`{"name":"deadline q%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":0,"args":{"deadline_ms":%s}}`,
				e.QueryID, traceNum(ts), traceNum(e.Value)))
		case KindReject:
			emit(fmt.Sprintf(`{"name":"reject q%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":0,"args":{"class":%d}}`,
				e.QueryID, traceNum(ts), e.Class))
		case KindEnqueue:
			emit(fmt.Sprintf(`{"name":"enqueue q%d.%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"class":%d}}`,
				e.QueryID, e.Task, traceNum(ts), e.Server+1, e.Class))
		case KindDispatch:
			// Slice spanning the task's queue wait, ending at dispatch.
			emit(fmt.Sprintf(`{"name":"wait q%d.%d","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"class":%d}}`,
				e.QueryID, e.Task, traceNum(ts-e.Value*traceTimeScale), traceNum(e.Value*traceTimeScale), e.Server+1, e.Class))
		case KindServiceStart:
			emit(fmt.Sprintf(`{"name":"start q%d.%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"class":%d}}`,
				e.QueryID, e.Task, traceNum(ts), e.Server+1, e.Class))
		case KindServiceEnd:
			emit(fmt.Sprintf(`{"name":"serve q%d.%d","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"class":%d}}`,
				e.QueryID, e.Task, traceNum(ts-e.Value*traceTimeScale), traceNum(e.Value*traceTimeScale), e.Server+1, e.Class))
		case KindQueryDone:
			emit(fmt.Sprintf(`{"name":"query q%d","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":0,"args":{"class":%d,"latency_ms":%s}}`,
				e.QueryID, traceNum(ts-e.Value*traceTimeScale), traceNum(e.Value*traceTimeScale), e.Class, traceNum(e.Value)))
		case KindQueueDepth:
			emit(fmt.Sprintf(`{"name":"queue depth s%d","ph":"C","ts":%s,"pid":0,"tid":%d,"args":{"depth":%s}}`,
				e.Server, traceNum(ts), e.Server+1, traceNum(e.Value)))
		case KindTaskLost:
			emit(fmt.Sprintf(`{"name":"lost q%d.%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"class":%d,"absorbed":%s}}`,
				e.QueryID, e.Task, traceNum(ts), e.Server+1, e.Class, traceNum(e.Value)))
		case KindHedge:
			emit(fmt.Sprintf(`{"name":"hedge q%d.%d","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{"class":%d,"primary_server":%s}}`,
				e.QueryID, e.Task, traceNum(ts), e.Server+1, e.Class, traceNum(e.Value)))
		case KindControl:
			// Controller tick decisions render as counter tracks on the
			// queries timeline: admission scale, credit limit, and the
			// active/warming server split.
			emit(fmt.Sprintf(`{"name":"control","ph":"C","ts":%s,"pid":0,"tid":0,"args":{"scale":%s,"credits":%d,"active":%d,"warming":%d}}`,
				traceNum(ts), traceNum(e.Value), e.Task, e.Server, e.Class))
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// traceNum formats a float as a JSON number. Non-finite values (infinite
// deadlines of deadline-less policies) have no JSON encoding and render
// as null.
func traceNum(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// traceEvent is the subset of the Chrome trace_event schema that
// ValidateChromeTrace checks.
type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
}

// validTracePhases are the phases WriteChromeTrace emits.
var validTracePhases = map[string]bool{"M": true, "i": true, "X": true, "C": true}

// ValidateChromeTrace checks the envelope and per-event invariants of a
// Chrome trace_event JSON document: millisecond display unit, at least
// one event, and per event a name, a known phase, pid and tid, a
// non-negative ts (metadata excepted) and, on complete slices, a
// non-negative dur.
func ValidateChromeTrace(r io.Reader) error {
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		return fmt.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("event %d: empty name", i)
		}
		if !validTracePhases[e.Ph] {
			return fmt.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Pid == nil || e.Tid == nil {
			return fmt.Errorf("event %d (%s): missing pid/tid", i, e.Name)
		}
		if e.Ph != "M" && (e.Ts == nil || *e.Ts < 0) {
			return fmt.Errorf("event %d (%s): missing or negative ts", i, e.Name)
		}
		if e.Ph == "X" && (e.Dur == nil || *e.Dur < 0) {
			return fmt.Errorf("event %d (%s): complete event without non-negative dur", i, e.Name)
		}
	}
	return nil
}
