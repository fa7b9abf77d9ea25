package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsTheStall drives the open-loop generator against a
// stub server that stalls once for 50 ms, refuses one request, fails one
// and hangs one past the client's 100 ms timeout. Latency must be taken from
// each query's due time — so the stall shows in the queries queued
// behind it and in the generator's lag — and the three bad requests must
// count as failed and as SLO misses.
func TestOpenLoopCountsTheStall(t *testing.T) {
	const (
		n       = 300
		gap     = time.Millisecond
		stallAt = 100
		stall   = 50 * time.Millisecond
		refuse  = 200
		fail    = 210
		hang    = 220
		sloMs   = 20.0
	)
	release := make(chan struct{})
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch served.Add(1) - 1 {
		case stallAt:
			time.Sleep(stall)
		case refuse:
			w.WriteHeader(http.StatusTooManyRequests)
		case fail:
			w.WriteHeader(http.StatusInternalServerError)
		case hang:
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
	}))
	defer srv.Close()
	defer close(release)

	sched := make([]arrival, n)
	for i := range sched {
		sched[i].due = time.Duration(i) * gap
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	recs := openLoop(time.Now(), sched, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	})

	queries := make([]queryRec, n)
	for i, r := range recs {
		queries[i] = queryRec{dueS: r.due.Seconds(), doneS: r.acked.Seconds(), sloMs: sloMs, accepted: r.err == nil}
	}
	s := summarize(queries)
	if s.sent != n || s.failed != 3 {
		t.Errorf("sent %d failed %d, want %d and 3 (429, 5xx, timeout)", s.sent, s.failed, n)
	}
	for _, i := range []int{refuse, fail, hang} {
		if recs[i].err == nil {
			t.Errorf("request %d should have failed", i)
		}
	}

	// The stalled request, and the ones due while it was stalled, waited:
	// their latency from due time is the rest of the stall, although each
	// was served at once when finally sent.
	lat := func(i int) time.Duration { return recs[i].acked - recs[i].due }
	if lat(stallAt) < stall {
		t.Errorf("stalled request's latency %v < the %v stall", lat(stallAt), stall)
	}
	behind := stallAt + 10
	if got, want := lat(behind), stall-10*gap-5*time.Millisecond; got < want {
		t.Errorf("request due 10 ms into the stall has latency %v from due time, want >= %v", got, want)
	}
	if own := recs[behind].acked - recs[behind].sent; own > 40*time.Millisecond {
		t.Errorf("request behind the stall took %v itself; the wait should be lag, not service", own)
	}
	if lag := lagP99Ms(recs); lag < 20 {
		t.Errorf("lag p99 %.2f ms does not show the 50 ms stall", lag)
	}

	// SLO misses: the three failures, plus every query the stall (and
	// later the 100 ms hang) pushed past 20 ms from its due time.
	late := 0
	for i, r := range recs {
		if r.err == nil && ms(lat(i)) > sloMs {
			late++
		}
	}
	if late < 20 {
		t.Errorf("only %d queries late; the stall alone delays about 30 past a 20 ms SLO", late)
	}
	if want := float64(n-3-late) / n; s.attainment != want {
		t.Errorf("attainment %.4f, want %.4f: failures and late queries both miss", s.attainment, want)
	}
}
