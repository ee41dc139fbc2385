package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// TestEvaluatorConcurrentBitIdentical runs one Evaluator from many
// goroutines, each on its own parameter vector, and requires every
// result to match a serial call bit for bit (run it under -race: the
// networks must never be shared between concurrent calls).
func TestEvaluatorConcurrentBitIdentical(t *testing.T) {
	corpus := testCorpus(t)
	cfg := testJobConfig()
	ev := NewEvaluator(cfg.Builder, corpus.Val, 0, 50)
	const n = 8
	params := make([][]float64, n)
	wantLoss, wantAcc := make([]float64, n), make([]float64, n)
	for i := range params {
		net := nn.NewNetwork(cfg.Builder)
		net.Init(randSource(int64(100 + i)))
		params[i] = net.Parameters()
		wantLoss[i], wantAcc[i] = ev.LossAndAccuracy(params[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, n*4)
	for g := 0; g < n*4; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loss, acc := ev.LossAndAccuracy(params[i])
			if math.Float64bits(loss) != math.Float64bits(wantLoss[i]) ||
				math.Float64bits(acc) != math.Float64bits(wantAcc[i]) {
				errs <- fmt.Errorf("vector %d: got (%v, %v), serial (%v, %v)", i, loss, acc, wantLoss[i], wantAcc[i])
			}
		}(g % n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if built := cap(ev.build) - len(ev.build); built > cap(ev.idle) {
		t.Fatalf("built %d networks, bound is %d", built, cap(ev.idle))
	}
}

// appInputs encodes one subtask's downloads the way the server
// publishes them.
func appInputs(t *testing.T, spec ModelSpec, params []float64, shard *data.Dataset, epoch, idx int) (boinc.Assignment, map[string][]byte) {
	t.Helper()
	specBytes, err := EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.Encode()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(SubtaskPayload{Epoch: epoch, Shard: idx, ModelFile: "m", ParamsFile: "p", ShardFile: "s"})
	if err != nil {
		t.Fatal(err)
	}
	return boinc.Assignment{Payload: payload}, map[string][]byte{"m": specBytes, "p": enc, "s": sh}
}

// TestTrainingAppReusesExecutorBitIdentical runs several subtasks through
// one long-lived app and requires the uploads a fresh app per subtask
// produces; switching the model file midway must rebuild the executor
// (a stale one would train the wrong architecture). The long-lived app
// then runs every subtask at once, as a client's slots do.
func TestTrainingAppReusesExecutorBitIdentical(t *testing.T) {
	corpus := testCorpus(t)
	cfg := testJobConfig()
	cnn := SmallCNNSpec(3, 8, 8, 10)
	mlp := MLPSpec(3*8*8, []int{16}, 10)
	mlp.Layers = append([]LayerSpec{{Kind: "flatten"}}, mlp.Layers...)
	shards := cfg.SplitShards(corpus)
	initial := func(spec ModelSpec) []float64 {
		b, err := spec.Builder()
		if err != nil {
			t.Fatal(err)
		}
		net := nn.NewNetwork(b)
		net.Init(randSource(3))
		return net.Parameters()
	}
	cnnParams, mlpParams := initial(cnn), initial(mlp)
	steps := []struct {
		spec   ModelSpec
		params []float64
	}{{cnn, cnnParams}, {cnn, cnnParams}, {mlp, mlpParams}, {mlp, mlpParams}, {cnn, cnnParams}}
	type run struct {
		asn    boinc.Assignment
		inputs map[string][]byte
		want   []byte
	}
	runs := make([]run, len(steps))
	long := NewTrainingApp(cfg)
	for i, s := range steps {
		asn, inputs := appInputs(t, s.spec, s.params, shards[i%len(shards)], 1+i/2, i)
		want, err := NewTrainingApp(cfg).Run(asn, inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := long.Run(asn, inputs)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("step %d: long-lived app upload differs from a fresh app's", i)
		}
		runs[i] = run{asn, inputs, want}
	}
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := long.Run(r.asn, r.inputs)
			if err != nil || string(got) != string(r.want) {
				t.Errorf("concurrent step %d: upload differs from a fresh app's (err %v)", i, err)
			}
		}()
	}
	wg.Wait()
}

// uploadJob builds a one-epoch job over st with no clients attached.
func uploadJob(t *testing.T, st store.Store) (*Distributed, *httptest.Server) {
	t.Helper()
	spec := SmallCNNSpec(3, 8, 8, 10)
	builder, err := spec.Builder()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testJobConfig()
	cfg.Builder = builder
	cfg.Subtasks = 2
	cfg.MaxEpochs = 1
	d, err := NewDistributed(cfg, spec, testCorpus(t), 1, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Server())
	t.Cleanup(ts.Close)
	return d, ts
}

// TestDistributedRejectsHostileUploads sends well-framed but hostile
// uploads: a header rewritten to claim 2^32-1 parameters (decoding it
// would attempt a 32 GiB allocation) and a correct-length vector holding
// a NaN. Both must be counted invalid and neither may reach the
// parameter store; an honest vector on the same path does.
func TestDistributedRejectsHostileUploads(t *testing.T) {
	st := store.NewStrong()
	d, ts := uploadJob(t, st)
	cl := boinc.NewClient("mallory", ts.URL, 1, nil)
	upload := func(out []byte) {
		t.Helper()
		asns, err := cl.RequestWork(1)
		if err != nil || len(asns) != 1 {
			t.Fatalf("RequestWork = %v, %v", asns, err)
		}
		if err := cl.Upload(asns[0].ResultID, out, nil); err != nil {
			t.Fatal(err)
		}
	}
	params := nn.NewNetwork(d.cfg.Builder).Parameters()
	honest, err := wire.EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := append([]byte(nil), honest...)
	binary.LittleEndian.PutUint32(rewritten[4:], math.MaxUint32)
	params[len(params)/2] = math.NaN()
	poisoned, err := wire.EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	base := st.Stats().Updates

	upload(rewritten)
	upload(poisoned)
	if got := d.Server().SchedStats().Invalid; got != 2 {
		t.Fatalf("Invalid = %d, want 2", got)
	}
	if got := st.Stats().Updates - base; got != 0 {
		t.Fatalf("hostile uploads reached the store: %d updates", got)
	}
	upload(honest)
	if got := st.Stats().Updates - base; got != 1 {
		t.Fatalf("honest upload: %d store updates, want 1", got)
	}
}

// TestDistributedGarbageClientFirst is the deterministic reproducer of a
// hang: a garbage-uploading client alone on the server, with an honest
// client joining 500 ms later. With no reliable client known, the
// reliability floor hands the garbage client every retry; the job must
// still complete once the honest client joins.
func TestDistributedGarbageClientFirst(t *testing.T) {
	d, ts, cfg := distTestSetup(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	garbageApp := boinc.AppFunc(func(boinc.Assignment, map[string][]byte) ([]byte, error) {
		return []byte("not parameters"), nil
	})
	var wg sync.WaitGroup
	run := func(id string, app boinc.App, delay time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return
			}
			cl := boinc.NewClient(id, ts.URL, 1, app)
			cl.Poll = 2 * time.Millisecond
			cl.Loop(ctx)
		}()
	}
	run("evil", garbageApp, 0)
	run("honest", NewTrainingApp(cfg), 500*time.Millisecond)
	select {
	case <-d.Done():
	case <-ctx.Done():
		t.Fatalf("job did not complete after the honest client joined: %+v", d.Server().SchedStats())
	}
	cancel()
	wg.Wait()
	if _, err := d.Result(); err != nil {
		t.Fatal(err)
	}
	if st := d.Server().SchedStats(); st.Failures != 0 || st.Invalid == 0 {
		t.Fatalf("Failures = %d, Invalid = %d: want no abandoned workunit and some rejected garbage", st.Failures, st.Invalid)
	}
}
