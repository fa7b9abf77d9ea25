package saas

import (
	"strconv"

	"tailguard/internal/obs"
	"tailguard/internal/workload"
)

// saasMetrics holds the handler's metric series, resolved once in
// NewHandler so the query path only touches atomics (counters, gauges)
// or the summaries' own locks.
type saasMetrics struct {
	queries  []*obs.Counter // per class: completed queries
	latency  []*obs.Summary // per class: query latency (compressed ms)
	rejected *obs.Counter
	tasks    *obs.Counter
	missed   *obs.Counter
	wait     *obs.Summary
	// depth and tpo are indexed by node; tpo series are shared per
	// cluster (nodes in one cluster expose one summary).
	depth []*obs.Gauge
	tpo   []*obs.Summary
}

// newSaasMetrics registers the handler's tg_* families on reg.
func newSaasMetrics(reg *obs.Registry, classes *workload.ClassSet, nodes []NodeRef) (*saasMetrics, error) {
	m := &saasMetrics{}
	var err error
	if m.rejected, err = reg.Counter("tg_rejected_total", "Queries rejected by admission control.", ""); err != nil {
		return nil, err
	}
	if m.tasks, err = reg.Counter("tg_tasks_total", "Tasks dequeued for dispatch.", ""); err != nil {
		return nil, err
	}
	if m.missed, err = reg.Counter("tg_task_deadline_miss_total", "Tasks dequeued past their queuing deadline.", ""); err != nil {
		return nil, err
	}
	if m.wait, err = reg.Summary("tg_task_wait_ms", "Task pre-dequeuing wait t_pr (compressed ms).", ""); err != nil {
		return nil, err
	}
	for _, c := range classes.Classes() {
		labels, err := obs.Labels("class", strconv.Itoa(c.ID))
		if err != nil {
			return nil, err
		}
		q, err := reg.Counter("tg_queries_total", "Completed queries per class.", labels)
		if err != nil {
			return nil, err
		}
		l, err := reg.Summary("tg_query_latency_ms", "End-to-end query latency per class (compressed ms).", labels)
		if err != nil {
			return nil, err
		}
		m.queries = append(m.queries, q)
		m.latency = append(m.latency, l)
	}
	for _, n := range nodes {
		labels, err := obs.Labels("node", strconv.Itoa(n.ID))
		if err != nil {
			return nil, err
		}
		g, err := reg.Gauge("tg_queue_depth", "Tasks waiting per edge node.", labels)
		if err != nil {
			return nil, err
		}
		clusterLabels, err := obs.Labels("cluster", string(n.Cluster))
		if err != nil {
			return nil, err
		}
		tpo, err := reg.Summary("tg_task_service_ms", "Task post-queuing time t_po per cluster (compressed ms).", clusterLabels)
		if err != nil {
			return nil, err
		}
		m.depth = append(m.depth, g)
		m.tpo = append(m.tpo, tpo)
	}
	return m, nil
}
