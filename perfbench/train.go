package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"vcdl/internal/blob"
	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/live"
	"vcdl/internal/nn"
	"vcdl/internal/ps"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// trainShape is one live-training workload: the vcdl-server job (SmallCNN
// on the default synthetic corpus, ValSubset 200, eventual store, two
// parameter servers) cut into a given number of subtasks.
type trainShape struct {
	name      string
	subtasks  int
	passes    int
	maxEpochs int
	// target stops training at this epoch-mean accuracy; 0 runs the
	// whole epoch budget.
	target float64
	blobs  bool
}

// trainCNN trains to a target: 20 subtasks of 250 samples, 3 local
// passes, inputs over the blob data plane. Client compute dominates.
var trainCNN = trainShape{name: "train-cnn", subtasks: 20, passes: 3, maxEpochs: 6, target: 0.9, blobs: true}

// trainFine runs a fixed 3-epoch budget of 250 small subtasks (20
// samples, 1 pass) with inputs over /download. The server's inline upload
// path (validate, decode, VC-ASGD assimilate, evaluate) dominates.
var trainFine = trainShape{name: "train-fine", subtasks: 250, passes: 1, maxEpochs: 3, blobs: false}

// trainClients is the number of volunteer daemons, one slot each: one
// per core of the 2-core reference host.
const trainClients = 2

// repTimeout bounds one training repetition; a run that hits it is
// reported incorrect rather than left hanging.
const repTimeout = 90 * time.Second

func runTrainCNN(o opts, clock *rpcClock) (*outcome, error) { return runTrain(trainCNN, o, clock) }
func runTrainFine(o opts, clock *rpcClock) (*outcome, error) {
	return runTrain(trainFine, o, clock)
}

// trainInputs generates one seed's corpus and the job configured for it.
func trainInputs(sh trainShape, seed int64) (core.JobConfig, core.ModelSpec, *data.Corpus, error) {
	dc := data.DefaultSynthConfig()
	dc.Seed = seed
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		return core.JobConfig{}, core.ModelSpec{}, nil, fmt.Errorf("generate corpus: %w", err)
	}
	spec := core.SmallCNNSpec(dc.C, dc.H, dc.W, dc.Classes)
	builder, err := spec.Builder()
	if err != nil {
		return core.JobConfig{}, core.ModelSpec{}, nil, fmt.Errorf("model spec: %w", err)
	}
	cfg := core.DefaultJobConfig(builder)
	cfg.Subtasks = sh.subtasks
	cfg.MaxEpochs = sh.maxEpochs
	cfg.TargetAccuracy = sh.target
	cfg.LocalPasses = sh.passes
	cfg.LearningRate = 0.01
	cfg.ValSubset = 200
	cfg.Seed = seed
	return cfg, spec, corpus, nil
}

// startTrain generates a seed's inputs and starts its project server; the
// returned time is the set-up time.
func startTrain(sh trainShape, seed int64) (*live.Server, float64, error) {
	t0 := time.Now()
	cfg, spec, corpus, err := trainInputs(sh, seed)
	if err != nil {
		return nil, 0, err
	}
	srv, err := live.StartServer("127.0.0.1:0", live.ServerConfig{
		Job: cfg, Spec: spec, Corpus: corpus, PServers: 2,
		Store: store.NewEventual(3, 4, seed), Blobs: sh.blobs,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	return srv, time.Since(t0).Seconds(), nil
}

// trainTally accumulates one run's client-side counts.
type trainTally struct {
	mu       sync.Mutex
	empty    int
	idle     time.Duration
	samples  int
	failed   int
	captured []captured
	reps     int
	// uploads counts accepted uploads: the canonical results plus those a
	// daemon finishes after the stop condition.
	uploads int
}

// captured is one upload the traced clients sent, kept for replaying the
// server's upload path stage by stage.
type captured struct {
	out   []byte
	epoch int
}

// maxCaptured bounds the replayed uploads per run.
const maxCaptured = 48

func runTrain(sh trainShape, o opts, clock *rpcClock) (*outcome, error) {
	out := &outcome{layers: make(map[string]float64)}
	minEpochs, maxEpochs := 0, 0
	one := func(tr *tracer, tally *trainTally) func(i int) (rep, error) {
		return func(i int) (rep, error) {
			// Each repetition trains on the next seed, so a run's median
			// spans several seeds and the second-seed check has seeds to
			// compare.
			seed := o.seed + int64(i)
			srv, setupS, err := startTrain(sh, seed)
			if err != nil {
				return rep{}, err
			}
			r, n, err := trainRep(sh, srv, tr, tally, out)
			r.setupS = setupS
			if err == nil && sh.target > 0 {
				if minEpochs == 0 || n < minEpochs {
					minEpochs = n
				}
				maxEpochs = max(maxEpochs, n)
				// Seeds 1-12 reach 0.9 at epoch 3, except seed 6 at epoch 4
				// (0.822 at epoch 3): no target separates two epochs for
				// every seed, so seeds may differ by one epoch, not more.
				out.check(maxEpochs-minEpochs <= 1, "%s: the run's seeds reach the target at epochs %d to %d (seed %d at %d)",
					sh.name, minEpochs, maxEpochs, seed, n)
			}
			return r, err
		}
	}
	setupOnly := func() (float64, error) {
		srv, s, err := startTrain(sh, o.seed)
		if err != nil {
			return 0, err
		}
		srv.Close()
		return s, nil
	}
	// A target workload makes two repetitions at least, so the second-seed
	// check always has a second seed.
	minReps := 1
	if sh.target > 0 {
		minReps = 2
	}
	if !o.trace {
		if err := repeat(o, out, minReps, one(nil, nil), setupOnly); err != nil {
			return nil, err
		}
		out.opsMS = clock.take()
		return out, nil
	}
	tr := newTracer()
	tally := &trainTally{}
	if err := runTraced(o, out, one(nil, nil), one(tr, tally), setupOnly); err != nil {
		return nil, err
	}
	if err := trainLayers(sh, o, tr, tally, out); err != nil {
		return nil, err
	}
	return out, nil
}

// trainRep trains one job to its stop condition with two client daemons
// — the shipped live.RunClient, or the traced benchmark loop — checks the
// outcome and returns the repetition and the number of epochs trained.
func trainRep(sh trainShape, srv *live.Server, tr *tracer, tally *trainTally, out *outcome) (rep, int, error) {
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, trainClients)
	clients := make([]*boinc.Client, trainClients)
	start := time.Now()
	for c := 0; c < trainClients; c++ {
		id := fmt.Sprintf("c%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr != nil {
				errs[c] = tracedTrainer(ctx, id, srv.URL(), sh.blobs, tr, tally)
				return
			}
			clients[c], errs[c] = live.RunClient(ctx, live.ClientConfig{
				ID: id, ServerURL: srv.URL(), Slots: 1, Blobs: sh.blobs,
			})
		}()
	}
	var elapsed time.Duration
	timer := time.NewTimer(repTimeout)
	select {
	case <-srv.D.Done():
		elapsed = time.Since(start)
	case <-timer.C:
		elapsed = time.Since(start)
		out.check(false, "%s: training did not finish within %s", sh.name, repTimeout)
	}
	timer.Stop()
	// Detach the daemons so in-flight work finishes and uploads: an
	// abrupt cancel would count the stranded results as client failures.
	for c := 0; c < trainClients; c++ {
		srv.D.Server().SetClientControl(fmt.Sprintf("c%d", c), boinc.ClientControl{Detach: true})
	}
	if !waitTimeout(&wg, repTimeout) {
		out.check(false, "%s: client daemons did not detach within %s", sh.name, repTimeout)
	}
	cancel()
	wg.Wait()

	res, rerr := srv.D.Result()
	st := srv.D.Server().SchedStats()
	out.attempted += st.Issued
	out.failed += st.Invalid + st.Failures + st.Timeouts
	out.check(rerr == nil, "%s: training failed: %v", sh.name, rerr)
	out.check(st.Invalid == 0 && st.Failures == 0, "%s: %d invalid and %d failed uploads", sh.name, st.Invalid, st.Failures)
	for c := range clients {
		if errs[c] != nil && !errors.Is(errs[c], boinc.ErrDetached) {
			return rep{}, 0, fmt.Errorf("client c%d: %w", c, errs[c])
		}
		if cl := clients[c]; cl != nil {
			out.failed += cl.Failed
			out.check(cl.Failed == 0, "%s: client c%d reported %d failed results", sh.name, c, cl.Failed)
		}
	}
	n := len(res.Epochs)
	if sh.target > 0 {
		out.check(res.Stopped, "%s: accuracy target %.2f not reached in %d epochs", sh.name, sh.target, n)
	} else {
		out.check(n == sh.maxEpochs, "%s: trained %d of %d epochs", sh.name, n, sh.maxEpochs)
	}
	accuracy := 0.0
	if n > 0 {
		accuracy = res.Epochs[n-1].Mean
	}
	if tally != nil {
		down, up := srv.D.Server().Traffic()
		tally.mu.Lock()
		tally.reps++
		tally.uploads += st.Completions
		tally.mu.Unlock()
		out.layers["live.bytes_down_per_wu"] += float64(down)
		out.layers["live.bytes_up_per_wu"] += float64(up)
	}
	return rep{targetS: elapsed.Seconds(), wus: n * sh.subtasks, accuracy: accuracy}, n, nil
}

// tracedTrainer is a volunteer daemon written out as the benchmark's own
// loop over the public calls live.RunClient makes, so that every stage a
// workunit passes through gets a span: scheduler RPC, input transfer,
// spec/parameter/shard decoding, training, encoding and upload.
func tracedTrainer(ctx context.Context, id, url string, blobs bool, tr *tracer, tally *trainTally) error {
	cl := boinc.NewClient(id, url, 1, nil)
	raw, err := cl.Download(core.TrainParamsFile)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	tp, err := core.DecodeTrainParams(raw)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	job := tp.JobConfig()
	var fetch *blob.Fetcher
	if blobs {
		fetch = blob.NewFetcher(url, blob.NewMemCache())
	}
	loopID, loopStart := tr.id(), time.Now()
	defer func() { tr.record(loopID, 0, "client.loop", 0, loopStart, time.Now()) }()
	var lastAck time.Time
	for ctx.Err() == nil && !cl.Control().Detach {
		rpcID := tr.id()
		t0 := time.Now()
		asns, err := cl.RequestWork(1)
		t1 := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("work request: %w", err)
		}
		if len(asns) == 0 {
			tr.record(rpcID, loopID, "boinc.sched_rpc", 0, t0, t1)
			tally.mu.Lock()
			tally.empty++
			tally.mu.Unlock()
			select {
			case <-ctx.Done():
			case <-time.After(cl.Poll):
			}
			continue
		}
		asn := asns[0]
		wuID := tr.id()
		tr.record(rpcID, wuID, "boinc.sched_rpc", asn.ResultID, t0, t1)
		output, epoch, samples, err := trainAssignment(ctx, cl, fetch, job, asn, tr, wuID)
		if err != nil {
			return err
		}
		t2 := time.Now()
		uerr := cl.Upload(asn.ResultID, output, nil)
		ack := time.Now()
		tr.record(0, wuID, "boinc.upload_rpc", asn.ResultID, t2, ack)
		tr.record(wuID, loopID, "client.wu", asn.ResultID, t0, ack)
		tally.mu.Lock()
		if !lastAck.IsZero() {
			tally.idle += t1.Sub(lastAck)
		}
		tally.samples += samples
		if uerr != nil {
			tally.failed++
		} else if len(tally.captured) < maxCaptured {
			tally.captured = append(tally.captured, captured{out: output, epoch: epoch})
		}
		tally.mu.Unlock()
		lastAck = ack
	}
	return nil
}

// trainAssignment fetches one assignment's inputs and runs the training
// app's stages (core.NewTrainingApp) one public call at a time.
func trainAssignment(ctx context.Context, cl *boinc.Client, fetch *blob.Fetcher, job core.JobConfig, asn boinc.Assignment, tr *tracer, wuID int64) (out []byte, epoch, samples int, err error) {
	rid := asn.ResultID
	inputs := make(map[string][]byte, len(asn.InputFiles))
	for _, f := range asn.InputFiles {
		t := time.Now()
		if dg, ok := asn.Blobs[f]; ok && fetch != nil {
			warm := fetch.Cache.Has(dg)
			b, err := fetch.Fetch(ctx, dg)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("blob %s: %w", f, err)
			}
			name := "blob.fetch"
			if warm {
				name = "blob.cache_hit"
			}
			tr.record(0, wuID, name, rid, t, time.Now())
			inputs[f] = b
			continue
		}
		before := cl.Downloads
		b, err := cl.Download(f)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("download %s: %w", f, err)
		}
		name := "boinc.download"
		if cl.Downloads == before {
			name = "boinc.cache_hit"
		}
		tr.record(0, wuID, name, rid, t, time.Now())
		inputs[f] = b
	}
	var p core.SubtaskPayload
	if err := json.Unmarshal(asn.Payload, &p); err != nil {
		return nil, 0, 0, fmt.Errorf("payload: %w", err)
	}
	t := time.Now()
	spec, err := core.DecodeSpec(inputs[p.ModelFile])
	if err != nil {
		return nil, 0, 0, err
	}
	builder, err := spec.Builder()
	if err != nil {
		return nil, 0, 0, err
	}
	t = stage(tr, wuID, rid, "core.spec", t)
	params, err := wire.DecodeParams(inputs[p.ParamsFile])
	if err != nil {
		return nil, 0, 0, fmt.Errorf("decode params: %w", err)
	}
	t = stage(tr, wuID, rid, "wire.decode", t)
	shard, err := data.Decode(inputs[p.ShardFile])
	if err != nil {
		return nil, 0, 0, fmt.Errorf("decode shard: %w", err)
	}
	t = stage(tr, wuID, rid, "data.decode", t)
	execCfg := job
	execCfg.Builder = builder
	updated, st := core.NewExecutor(execCfg).Run(params, shard, job.Seed^int64(p.Epoch)<<20^int64(p.Shard))
	t = stage(tr, wuID, rid, "core.compute", t)
	out, err = wire.EncodeParams(updated)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("encode params: %w", err)
	}
	stage(tr, wuID, rid, "wire.encode", t)
	return out, p.Epoch, st.Samples, nil
}

// stage records a span from start to now and returns now.
func stage(tr *tracer, parent, wu int64, name string, start time.Time) time.Time {
	now := time.Now()
	tr.record(0, parent, name, wu, start, now)
	return now
}

// trainLayers turns the traced half of a training run into per-layer
// metrics, replays the captured uploads through the server's upload
// stages, and writes the self-time table and the spans.
func trainLayers(sh trainShape, o opts, tr *tracer, tally *trainTally, out *outcome) error {
	L := out.layers
	L["boinc.sched_rpc_ms"] = median(tr.durations("boinc.sched_rpc"))
	L["boinc.upload_rpc_ms"] = median(tr.durations("boinc.upload_rpc"))
	L["boinc.download_ms"] = median(tr.durations("boinc.download"))
	L["blob.fetch_ms"] = median(tr.durations("blob.fetch"))
	L["core.spec_ms"] = median(tr.durations("core.spec"))
	L["wire.decode_ms"] = median(tr.durations("wire.decode"))
	L["data.decode_ms"] = median(tr.durations("data.decode"))
	L["wire.encode_ms"] = median(tr.durations("wire.encode"))
	compute := tr.durations("core.compute")
	L["core.compute_ms"] = median(compute)
	if sum := sumOf(compute); sum > 0 {
		L["core.samples_per_s"] = float64(tally.samples) / (sum / 1e3)
	}
	if hits, misses := len(tr.durations("blob.cache_hit")), len(tr.durations("blob.fetch")); hits+misses > 0 {
		L["blob.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	reps := float64(tally.reps)
	L["boinc.empty_replies"] = float64(tally.empty) / reps
	L["boinc.idle_s"] = tally.idle.Seconds() / reps
	if tally.uploads > 0 {
		L["live.bytes_down_per_wu"] /= float64(tally.uploads)
		L["live.bytes_up_per_wu"] /= float64(tally.uploads)
	}
	out.failed += tally.failed
	out.check(tally.failed == 0, "%s: %d traced uploads failed", sh.name, tally.failed)

	if err := replayUploads(sh, o, tally.captured, out); err != nil {
		return err
	}
	L["boinc.upload_queue_ms"] = L["boinc.upload_rpc_ms"] -
		(2*L["wire.decode_params_ms"] + L["nn.build_ms"] + L["ps.assimilate_ms"] + L["core.eval_ms"])
	return finishTrace(o, tr, out)
}

// replayUploads runs captured uploads through the server's upload stages
// by their public functions, in the order the server runs them: validate
// (decode, build a network to count parameters), then assimilate (decode
// again, VC-ASGD update, read back, evaluate).
func replayUploads(sh trainShape, o opts, caps []captured, out *outcome) error {
	if len(caps) == 0 {
		return fmt.Errorf("%s: no uploads captured", sh.name)
	}
	cfg, _, corpus, err := trainInputs(sh, o.seed)
	if err != nil {
		return err
	}
	eval := core.NewEvaluator(cfg.Builder, corpus.Val, cfg.ValSubset, cfg.BatchSize*4)
	first, err := wire.DecodeParams(caps[0].out)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	group := ps.NewGroup(2, store.NewEventual(3, 4, o.seed), cfg.Alpha)
	if err := group.Publish(first); err != nil {
		return fmt.Errorf("replay publish: %w", err)
	}
	var build, decode, assim, evalMS []float64
	ms := func(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
	for _, c := range caps {
		t := time.Now()
		want := nn.NewNetwork(cfg.Builder).ParamCount()
		build = append(build, ms(t))
		t = time.Now()
		params, err := wire.DecodeParams(c.out)
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		decode = append(decode, ms(t))
		out.check(len(params) == want, "%s: upload of %d parameters, model has %d", sh.name, len(params), want)
		t = time.Now()
		srv := group.Pick()
		if err := srv.Assimilate(params, c.epoch); err != nil {
			return fmt.Errorf("replay assimilate: %w", err)
		}
		cur, err := srv.Current()
		if err != nil {
			return fmt.Errorf("replay read-back: %w", err)
		}
		assim = append(assim, ms(t))
		t = time.Now()
		eval.Accuracy(cur)
		evalMS = append(evalMS, ms(t))
	}
	L := out.layers
	L["nn.build_ms"] = median(build)
	L["wire.decode_params_ms"] = median(decode)
	L["ps.assimilate_ms"] = median(assim)
	L["core.eval_ms"] = median(evalMS)
	out.logf("server upload stages replayed on %d captured uploads:", len(caps))
	out.logf("  %s", timingLine("nn.build", build))
	out.logf("  %s", timingLine("wire.decode_params", decode))
	out.logf("  %s", timingLine("ps.assimilate", assim))
	out.logf("  %s", timingLine("core.eval", evalMS))
	return nil
}

// waitTimeout waits for wg, giving up after d; it reports whether wg
// finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
