package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tailguard/internal/tgd"
)

// Isolation replays for the daemon: the wire format alone, each store
// alone, and whole round trips through the handler without a socket.
// Together with the traced session's socket spans they split a round
// trip into socket, handler, wire and store.

// wireCycle is one message of each kind a fanout-1 task cycle puts on
// the wire, as the client and the daemon exchange them, and for each a
// constructor of the empty value the receiving side decodes into.
func wireCycle() (msgs []any, empty []func() any) {
	payload := json.RawMessage("123456")
	msgs = []any{
		&tgd.EnqueueRequest{Class: 1, Fanout: 1, Payloads: []json.RawMessage{payload}},
		&tgd.EnqueueResponse{QueryID: 123456, Tasks: 1, DeadlineMs: 1.7e12, BudgetMs: 19.2, NowMs: 1.7e12},
		&tgd.ClaimRequest{Worker: "w0", WaitMs: 20},
		&tgd.Lease{LeaseID: 987654, QueryID: 123456, Class: 1, Attempt: 1, EnqueuedMs: 1.7e12, DeadlineMs: 1.7e12, ExpiryMs: 1.7e12, NowMs: 1.7e12, Payload: payload},
		&tgd.CompleteRequest{QueryID: 123456, LeaseID: 987654, Worker: "w0"},
		&tgd.CompleteResponse{QueryDone: true, NowMs: 1.7e12},
	}
	empty = []func() any{
		func() any { return new(tgd.EnqueueRequest) }, func() any { return new(tgd.EnqueueResponse) },
		func() any { return new(tgd.ClaimRequest) }, func() any { return new(tgd.Lease) },
		func() any { return new(tgd.CompleteRequest) }, func() any { return new(tgd.CompleteResponse) },
	}
	return msgs, empty
}

func tgdLayers(e *env, t *tgdEnv, o *outcome) error {
	l := e.tr.lane("replay")
	cycles := e.size(20_000, 500)

	// wire: encoding/json on the public wire types, per task cycle.
	var wErr error
	l.timed("replay tgd wire", -1, -1, func() {
		msgs, empty := wireCycle()
		encoded := make([][]byte, len(msgs))
		o.set("tgd.wire_encode_ns", bestOf(replayReps, func() float64 {
			return perOp(cycles, func() {
				for range cycles {
					for i, m := range msgs {
						if encoded[i], wErr = json.Marshal(m); wErr != nil {
							return
						}
					}
				}
			})
		}))
		o.set("tgd.wire_decode_ns", bestOf(replayReps, func() float64 {
			return perOp(cycles, func() {
				for range cycles {
					for i, mk := range empty {
						if wErr = json.Unmarshal(encoded[i], mk()); wErr != nil {
							return
						}
					}
				}
			})
		}))
	})
	if wErr != nil {
		return wErr
	}

	// store: Append alone, on each store. The fsync'd journal gets few
	// appends because each costs a disk flush.
	path := filepath.Join(e.outDir, fmt.Sprintf("replay-%d.journal", os.Getpid()))
	defer os.Remove(path)
	appendRecs := func(st tgd.Store, queries int) (float64, error) {
		var err error
		ns := perOp(2*queries, func() {
			for i := 1; i <= queries && err == nil; i++ {
				at := float64(i)
				if err = st.Append(tgd.Record{Op: tgd.OpEnqueue, AtMs: at, Query: &tgd.QueryRecord{
					ID: int64(i), Class: i % 2, Fanout: 1, ArrivalMs: at, DeadlineMs: at + 19.2,
					Payloads: []json.RawMessage{json.RawMessage("123456")},
				}}); err == nil {
					err = st.Append(tgd.Record{Op: tgd.OpComplete, QueryID: int64(i), AtMs: at + 0.5})
				}
			}
		})
		return ns, err
	}
	var sErr error
	l.timed("replay tgd.Store.Append", -1, -1, func() {
		var ns float64
		if ns, sErr = appendRecs(tgd.NewMemStore(), cycles); sErr != nil {
			return
		}
		o.set("tgd.store_mem_append_ns", ns)
		for _, fs := range []struct {
			metric  string
			sync    bool
			queries int
		}{{"tgd.store_fsync_append_us", true, e.size(150, 10)}, {"tgd.store_file_append_us", false, cycles}} {
			os.Remove(path)
			var st *tgd.FileStore
			if st, sErr = tgd.OpenFileStore(path, fs.sync); sErr != nil {
				return
			}
			ns, sErr = appendRecs(st, fs.queries)
			if cerr := st.Close(); sErr == nil {
				sErr = cerr
			}
			if sErr != nil {
				return
			}
			o.set(fs.metric, ns/1e3)
		}
	})
	if sErr != nil {
		return sErr
	}
	// The unsynced journal just written holds `cycles` settled queries:
	// replaying it is what tgd.New does on restart.
	var rErr error
	l.timed("replay tgd.New (journal)", -1, -1, func() {
		st, err := tgd.OpenFileStore(path, false)
		if err != nil {
			rErr = err
			return
		}
		cfg := t.cfg
		cfg.Store = st
		start := time.Now()
		d, err := tgd.New(cfg)
		took := time.Since(start)
		if err != nil {
			rErr = err
			return
		}
		if got := d.Snapshot().QueriesDone; got != int64(cycles) {
			rErr = fmt.Errorf("benchmark: replay recovered %d done queries, want %d", got, cycles)
		}
		if err := d.Close(); rErr == nil {
			rErr = err
		}
		o.set("tgd.replay_us_per_record", float64(took.Microseconds())/float64(2*cycles))
	})
	if rErr != nil {
		return rErr
	}

	// Round trips through the handler, JSON, table and the workload's
	// own kind of store, with no socket: the same query mix, one call at
	// a time.
	inprocQueries := e.size(4000, 100)
	var iErr error
	l.timed("replay tgd in-process", -1, -1, func() {
		journal := ""
		if t.p.journal {
			journal = path
			os.Remove(path)
		}
		d, err := openDaemon(t.cfg, journal)
		if err != nil {
			iErr = err
			return
		}
		defer d.Close()
		c := tgd.NewClient("http://tgd.inprocess", tgd.InProcessTransport(d))
		ctx := context.Background()
		rng := rand.New(rand.NewSource(e.seed))
		var enq, claim, complete []float64
		for range inprocQueries {
			fanout := t.fan.Sample(rng)
			payloads := make([]json.RawMessage, fanout)
			for i := range payloads {
				payloads[i] = json.RawMessage("123456")
			}
			t0 := time.Now()
			if _, iErr = c.Enqueue(ctx, tgd.EnqueueRequest{Class: t.classes.Sample(rng), Fanout: fanout, Payloads: payloads}); iErr != nil {
				return
			}
			enq = append(enq, float64(time.Since(t0).Nanoseconds())/1e3)
			for range fanout {
				t1 := time.Now()
				lease, err := c.Claim(ctx, tgd.ClaimRequest{Worker: "w0"})
				t2 := time.Now()
				if err != nil || lease == nil {
					iErr = fmt.Errorf("benchmark: in-process claim: lease %v, err %v", lease, err)
					return
				}
				if _, iErr = c.Complete(ctx, tgd.CompleteRequest{QueryID: lease.QueryID, TaskIndex: lease.TaskIndex, LeaseID: lease.LeaseID, Worker: "w0"}); iErr != nil {
					return
				}
				claim = append(claim, float64(t2.Sub(t1).Nanoseconds())/1e3)
				complete = append(complete, float64(time.Since(t2).Nanoseconds())/1e3)
			}
		}
		o.set("tgd.inproc_enqueue_us", median(enq))
		o.set("tgd.inproc_claim_us", median(claim))
		o.set("tgd.inproc_complete_us", median(complete))
	})
	if iErr != nil {
		return iErr
	}

	// By subtraction. Per round trip: what the socket path adds over the
	// in-process call, averaged over the three kinds. Per fanout-1 task
	// cycle: what the handler, mux and table cost once the wire format
	// and the two journal appends are taken out.
	sock := o.m["tgd.sock_enqueue_us"] + o.m["tgd.sock_claim_us"] + o.m["tgd.sock_complete_us"]
	inproc := o.m["tgd.inproc_enqueue_us"] + o.m["tgd.inproc_claim_us"] + o.m["tgd.inproc_complete_us"]
	appendUs := o.m["tgd.store_mem_append_ns"] / 1e3
	if t.p.journal {
		appendUs = o.m["tgd.store_file_append_us"]
	}
	o.set("tgd.socket_us_per_rt", (sock-inproc)/3)
	o.set("tgd.handler_self_us", inproc-(o.m["tgd.wire_encode_ns"]+o.m["tgd.wire_decode_ns"])/1e3-2*appendUs)
	return nil
}
