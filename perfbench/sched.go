package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vcdl/internal/boinc"
)

// schedBacklog is the pending depth the sched-backlog workload holds: the
// work generator adds one workunit per completion. RequestWork scans every
// pending workunit, so the scheduler's own cost dominates at this depth,
// while live training never has more than 250 pending.
const schedBacklog = 8000

// schedRepWUs is how many workunits one sched-backlog repetition
// completes.
const schedRepWUs = 2000

// schedClients is the number of closed-loop callers: volunteer daemons
// that each wait for their reply before sending the next request.
const schedClients = 2

// schedJob is one started scheduler server with its generated inputs.
type schedJob struct {
	srv  *boinc.Server
	hs   *http.Server
	url  string
	rng  *rand.Rand // guarded by mu
	mu   sync.Mutex
	next int
	done atomic.Int64 // EvWUDone events
}

// doneCounter counts terminal-success events as the scheduler emits them.
type doneCounter struct{ n *atomic.Int64 }

func (d doneCounter) OnSchedEvent(e boinc.SchedEvent) {
	if e.Kind == boinc.EvWUDone {
		d.n.Add(1)
	}
}

// addWorkunit generates one workunit from the seeded stream: a payload
// of 64–575 bytes and a deadline far beyond the run.
func (j *schedJob) addWorkunit() {
	j.mu.Lock()
	payload := make([]byte, 64+j.rng.Intn(512))
	j.rng.Read(payload)
	name := fmt.Sprintf("wu_%06d", j.next)
	j.next++
	j.mu.Unlock()
	j.srv.AddWorkunit(boinc.Workunit{Name: name, Payload: payload, Timeout: 3600})
}

func startSched(seed int64) (*schedJob, float64, error) {
	t0 := time.Now()
	cfg := boinc.DefaultSchedulerConfig()
	cfg.Seed = seed
	j := &schedJob{srv: boinc.NewServer(cfg, nil, nil), rng: rand.New(rand.NewSource(seed))}
	j.srv.Scheduler(func(s *boinc.Scheduler) { s.AddSink(doneCounter{&j.done}) })
	for i := 0; i < schedBacklog; i++ {
		j.addWorkunit()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	j.url = "http://" + ln.Addr().String()
	j.hs = &http.Server{Handler: j.srv}
	go j.hs.Serve(ln)
	return j, time.Since(t0).Seconds(), nil
}

// schedTally accumulates one run's client-side counts.
type schedTally struct {
	mu       sync.Mutex
	requests int
	uploads  int
	errors   int
	empty    int
	idle     time.Duration
}

func runSchedBacklog(o opts, clock *rpcClock) (*outcome, error) {
	out := &outcome{layers: make(map[string]float64)}
	one := func(tr *tracer, tally *schedTally) func(int) (rep, error) {
		return func(int) (rep, error) { return schedRep(o, tr, tally, out) }
	}
	setupOnly := func() (float64, error) {
		j, s, err := startSched(o.seed)
		if err != nil {
			return 0, err
		}
		j.hs.Close()
		return s, nil
	}
	if !o.trace {
		if err := repeat(o, out, 1, one(nil, &schedTally{}), setupOnly); err != nil {
			return nil, err
		}
		out.opsMS = clock.take()
		return out, nil
	}
	tr := newTracer()
	tally := &schedTally{}
	if err := runTraced(o, out, one(nil, &schedTally{}), one(tr, tally), setupOnly); err != nil {
		return nil, err
	}
	L := out.layers
	L["boinc.sched_rpc_ms"] = median(tr.durations("boinc.sched_rpc"))
	L["boinc.upload_rpc_ms"] = median(tr.durations("boinc.upload_rpc"))
	reps := float64(len(out.reps))
	L["boinc.empty_replies"] = float64(tally.empty) / reps
	L["boinc.idle_s"] = tally.idle.Seconds() / reps
	return out, finishTrace(o, tr, out)
}

// schedRep serves one fresh backlog and completes schedRepWUs workunits
// through closed-loop request→upload callers.
func schedRep(o opts, tr *tracer, tally *schedTally, out *outcome) (rep, error) {
	j, setupS, err := startSched(o.seed)
	if err != nil {
		return rep{}, err
	}
	defer j.hs.Close()
	tally.mu.Lock()
	before := tally.requests + tally.uploads
	errBefore := tally.errors
	tally.mu.Unlock()
	var claimed atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, schedClients)
	start := time.Now()
	for c := 0; c < schedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = schedCaller(j, fmt.Sprintf("c%d", c), &claimed, tr, tally)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return rep{}, err
	}

	st := j.srv.SchedStats()
	tally.mu.Lock()
	out.attempted += tally.requests + tally.uploads - before
	out.failed += tally.errors - errBefore
	tally.mu.Unlock()
	done := int(j.done.Load())
	out.check(done == st.Completions && done == schedRepWUs,
		"sched-backlog: %d workunits done, %d completions, %d uploads acknowledged", done, st.Completions, schedRepWUs)
	out.check(j.srv.ShedCount() == 0, "sched-backlog: %d requests shed", j.srv.ShedCount())
	out.check(st.Pending == schedBacklog, "sched-backlog: backlog %d, want it held at %d", st.Pending, schedBacklog)
	out.check(st.Invalid == 0 && st.Failures == 0 && st.Timeouts == 0,
		"sched-backlog: %d invalid, %d failed, %d timed out", st.Invalid, st.Failures, st.Timeouts)
	return rep{setupS: setupS, targetS: elapsed.Seconds(), wus: done}, nil
}

// schedCaller is one closed-loop volunteer: request one workunit, upload
// its result, and (as the work generator) add a workunit in its place,
// until the repetition's workunits are all claimed.
func schedCaller(j *schedJob, id string, claimed *atomic.Int64, tr *tracer, tally *schedTally) error {
	cl := boinc.NewClient(id, j.url, 1, nil)
	output := make([]byte, 256)
	loopID, loopStart := tr.id(), time.Now()
	defer func() { tr.record(loopID, 0, "client.loop", 0, loopStart, time.Now()) }()
	var lastAck time.Time
	for claimed.Add(1) <= schedRepWUs {
		rpcID := tr.id()
		t0 := time.Now()
		asns, err := cl.RequestWork(1)
		t1 := time.Now()
		tally.mu.Lock()
		tally.requests++
		if err != nil {
			tally.errors++
		}
		if err == nil && len(asns) == 0 {
			tally.empty++
		}
		tally.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%s: work request: %w", id, err)
		}
		if len(asns) == 0 {
			tr.record(rpcID, loopID, "boinc.sched_rpc", 0, t0, t1)
			claimed.Add(-1)
			continue
		}
		rid := asns[0].ResultID
		wuID := tr.id()
		tr.record(rpcID, wuID, "boinc.sched_rpc", rid, t0, t1)
		t2 := time.Now()
		err = cl.Upload(rid, output, nil)
		t3 := time.Now()
		tr.record(0, wuID, "boinc.upload_rpc", rid, t2, t3)
		j.addWorkunit()
		ack := time.Now()
		tr.record(0, wuID, "boinc.add_workunit", rid, t3, ack)
		tr.record(wuID, loopID, "client.wu", rid, t0, ack)
		tally.mu.Lock()
		tally.uploads++
		if err != nil {
			tally.errors++
		}
		if !lastAck.IsZero() {
			tally.idle += t1.Sub(lastAck)
		}
		tally.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%s: upload: %w", id, err)
		}
		lastAck = ack
	}
	return nil
}
