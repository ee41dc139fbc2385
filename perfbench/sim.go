package main

import (
	"fmt"
	"time"

	"vcdl/internal/core"
	"vcdl/internal/exp"
)

// sim-fleet: the scale grid's replicated fleet (250 clients, replication
// 4, 2 epochs) on the default real compute backend, in virtual time.
const (
	simClients = 250
	simEpochs  = 2
)

// simBackend names the benchmark's timing wrapper around the default
// "real" backend. Every run uses it, so the op latency — one subtask's
// compute as the simulator awaits it — is measured the same way traced
// or not. Wrapping changes no result: backends only decide when and where
// the same math runs (DESIGN.md §8).
const simBackend = "perfbench-timed"

// simRecorder receives the wrapper's timings for the current repetition.
type simRecorder struct {
	tr       *tracer
	root     int64
	waitMS   []float64
	samples  int
	launched map[[2]int]bool
	repeats  int
}

// timedBackend times Future.Wait on the real backend, where the lazy
// real backend does its math.
type timedBackend struct {
	inner core.Backend
	rec   *simRecorder
}

func (b *timedBackend) Name() string { return simBackend }

func (b *timedBackend) Launch(t core.Subtask) core.Future {
	key := [2]int{t.Epoch, t.Shard}
	if b.rec.launched[key] {
		b.rec.repeats++
	}
	b.rec.launched[key] = true
	return &timedFuture{inner: b.inner.Launch(t), rec: b.rec, wu: int64(t.Epoch)<<20 | int64(t.Shard)}
}

func (b *timedBackend) Retire(epoch int)         { b.inner.Retire(epoch) }
func (b *timedBackend) Stats() core.BackendStats { return b.inner.Stats() }
func (b *timedBackend) Close()                   { b.inner.Close() }

type timedFuture struct {
	inner core.Future
	rec   *simRecorder
	wu    int64
	done  bool
}

func (f *timedFuture) Wait() ([]float64, core.ExecStats) {
	if f.done {
		return f.inner.Wait()
	}
	f.done = true
	t := time.Now()
	p, st := f.inner.Wait()
	end := time.Now()
	f.rec.waitMS = append(f.rec.waitMS, float64(end.Sub(t))/1e6)
	f.rec.samples += st.Samples
	f.rec.tr.record(0, f.rec.root, "core.backend_wait", f.wu, t, end)
	return p, st
}

func startSim(seed int64) (*exp.Spec, float64, error) {
	t0 := time.Now()
	job, corpus, err := exp.ScaleWorkload(seed, simClients, simEpochs)
	if err != nil {
		return nil, 0, fmt.Errorf("scale workload: %w", err)
	}
	spec, err := exp.ScaleSpec(job, corpus, exp.ScalePoint{Clients: simClients, Backend: simBackend})
	if err != nil {
		return nil, 0, err
	}
	return spec, time.Since(t0).Seconds(), nil
}

// simFingerprint is what must repeat exactly across repetitions of a seed.
type simFingerprint struct {
	hours, accuracy, costStd, costPre float64
	issued                            int
}

func runSimFleet(o opts, _ *rpcClock) (*outcome, error) {
	out := &outcome{layers: make(map[string]float64)}
	rec := &simRecorder{}
	core.RegisterBackend(simBackend, func(cfg core.JobConfig, workers int) core.Backend {
		inner, err := core.NewBackend("real", cfg, workers)
		if err != nil {
			panic(fmt.Sprintf("perfbench: real backend: %v", err)) // "real" is built in
		}
		return &timedBackend{inner: inner, rec: rec}
	})
	var first *simFingerprint
	var tracedWaits, selfS, computed, repeats []float64
	tracedSamples := 0
	one := func(tr *tracer) func(int) (rep, error) {
		return func(int) (rep, error) {
			spec, setupS, err := startSim(o.seed)
			if err != nil {
				return rep{}, err
			}
			rec.tr, rec.root, rec.launched, rec.repeats = tr, tr.id(), make(map[[2]int]bool), 0
			waitsBefore, samplesBefore := len(rec.waitMS), rec.samples
			start := time.Now()
			res, err := exp.Run(spec)
			end := time.Now()
			if err != nil {
				return rep{}, fmt.Errorf("simulate: %w", err)
			}
			tr.record(rec.root, 0, "vcsim.run", 0, start, end)
			last, ok := res.Curve.Last()
			out.check(ok && len(res.Epochs) == simEpochs, "sim-fleet: %d epochs simulated, want %d", len(res.Epochs), simEpochs)
			fp := simFingerprint{res.Hours, last.Value, res.CostStandardUSD, res.CostPreemptibleUSD, res.Issued}
			if first == nil {
				first = &fp
			}
			out.check(fp == *first, "sim-fleet: repetition differs from the first of seed %d: %+v vs %+v", o.seed, fp, *first)
			out.attempted += res.Issued
			out.failed += res.InvalidResults + res.Timeouts
			out.check(res.InvalidResults == 0 && res.Timeouts == 0, "sim-fleet: %d invalid results, %d timeouts", res.InvalidResults, res.Timeouts)
			if tr != nil {
				waits := rec.waitMS[waitsBefore:]
				tracedWaits = append(tracedWaits, waits...)
				tracedSamples += rec.samples - samplesBefore
				selfS = append(selfS, end.Sub(start).Seconds()-sumOf(waits)/1e3)
				computed = append(computed, float64(res.Compute.Computed))
				repeats = append(repeats, float64(rec.repeats))
			}
			return rep{setupS: setupS, targetS: end.Sub(start).Seconds(), wus: res.Issued, accuracy: last.Value}, nil
		}
	}
	setupOnly := func() (float64, error) {
		_, s, err := startSim(o.seed)
		return s, err
	}
	// Two repetitions at least: the determinism check compares them.
	if !o.trace {
		if err := repeat(o, out, 2, one(nil), setupOnly); err != nil {
			return nil, err
		}
		out.opsMS = rec.waitMS
		return out, nil
	}
	tr := newTracer()
	if err := runTraced(o, out, one(nil), one(tr), setupOnly); err != nil {
		return nil, err
	}
	L := out.layers
	// The real backend computes lazily inside Wait, so the wait is the
	// client compute of one simulated subtask.
	L["core.backend_wait_ms"] = median(tracedWaits)
	L["core.compute_ms"] = median(tracedWaits)
	if wait := sumOf(tracedWaits); wait > 0 {
		L["core.samples_per_s"] = float64(tracedSamples) / (wait / 1e3)
	}
	L["core.backend_computed"] = median(computed)
	L["core.backend_repeats"] = median(repeats)
	L["vcsim.self_s"] = median(selfS)
	return out, finishTrace(o, tr, out)
}
