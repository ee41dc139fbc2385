// Command perfbench is the repository's end-to-end benchmark. It drives
// the shipped code paths — the live HTTP server and client daemons
// (internal/live), the BOINC scheduler served over loopback
// (internal/boinc) and the simulator (internal/exp, internal/vcsim) —
// through their public functions, checks each run's outputs, and prints
// one JSON result line. See README.md in this directory for the
// workloads, the metrics and what each layer is predicted to move.
//
//	bash perfbench/run.sh --workload train-cnn --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// rep is one repetition of a workload: a fresh set-up, then work up to
// the workload's stop condition.
type rep struct {
	setupS  float64
	targetS float64 // set-up end to stop condition
	wus     int     // workunits completed (simulated copies for sim-fleet)
	// accuracy is the final epoch-mean validation accuracy (0 for
	// sched-backlog, which trains nothing).
	accuracy float64
	peakMB   float64 // peak resident set size during the repetition
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	reps []rep
	// extraSetups are set-up times of set-ups made only to have enough
	// set-up samples.
	extraSetups []float64
	// opsMS is the end-to-end operation latency sample, in ms.
	opsMS []float64
	// attempted and failed count operations (results issued, requests
	// sent) and those that failed, were refused or were rejected.
	attempted, failed int
	// problems lists failed output checks; any makes the run incorrect.
	problems []string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// report holds human-readable lines for standard error.
	report []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) logf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workload is one named input set.
type workload struct {
	name string
	run  func(o opts, clock *rpcClock) (*outcome, error)
}

var workloads = []workload{
	{"train-cnn", runTrainCNN},
	{"train-fine", runTrainFine},
	{"sched-backlog", runSchedBacklog},
	{"sim-fleet", runSimFleet},
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 5

// repeat runs repetitions while the next one, at the mean length of
// those so far, still fits in the measured window (always at least
// minReps), then tops the set-up sample up to minSetups with set-ups
// that do no work. Stopping before the window would overrun keeps a
// run's length close to --seconds whatever a repetition costs.
func repeat(o opts, out *outcome, minReps int, one func(i int) (rep, error), setupOnly func() (float64, error)) error {
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if elapsed := time.Since(start); i >= minReps && elapsed+elapsed/time.Duration(i) > window {
			break
		}
		// Start each repetition from a collected heap returned to the OS,
		// so garbage one repetition left bills neither the next one's time
		// nor its peak RSS.
		debug.FreeOSMemory()
		stop := sampleRSS()
		r, err := one(i)
		peak, rerr := stop()
		if err = errors.Join(err, rerr); err != nil {
			return err
		}
		r.peakMB = peak
		out.reps = append(out.reps, r)
		if len(out.problems) > 0 {
			return nil // the run is already incorrect; stop early
		}
	}
	for len(out.reps)+len(out.extraSetups) < minSetups {
		debug.FreeOSMemory()
		s, err := setupOnly()
		if err != nil {
			return err
		}
		out.extraSetups = append(out.extraSetups, s)
	}
	return nil
}

// runTraced spends the first half of the window on untraced
// repetitions and the second half on traced ones, and records the traced
// half's rate, allocation and GC figures and the tracing overhead.
func runTraced(o opts, out *outcome, untraced, traced func(i int) (rep, error), setupOnly func() (float64, error)) error {
	half := o
	half.seconds = o.seconds / 2
	if err := repeat(half, out, 1, untraced, setupOnly); err != nil {
		return err
	}
	base := wuRate(out.reps)
	out.reps = nil
	before := readGo()
	if err := repeat(half, out, 1, traced, setupOnly); err != nil {
		return err
	}
	wus := 0
	for _, r := range out.reps {
		wus += r.wus
	}
	goLayer(out.layers, before, readGo(), wus)
	rate := wuRate(out.reps)
	out.layers["trace.wu_per_s"] = rate
	out.layers["trace.overhead"] = 1 - rate/base
	out.logf("tracing overhead (%s): untraced %.2f wu/s, traced %.2f wu/s, %.1f%%", o.workload, base, rate, 100*(1-rate/base))
	return nil
}

// wuRate is the median per-repetition throughput.
func wuRate(reps []rep) float64 {
	var r []float64
	for _, x := range reps {
		r = append(r, float64(x.wus)/x.targetS)
	}
	return median(r)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"boinc.sched_rpc_ms":     "ms",
	"boinc.upload_rpc_ms":    "ms",
	"boinc.empty_replies":    "count",
	"boinc.idle_s":           "s",
	"boinc.download_ms":      "ms",
	"boinc.upload_queue_ms":  "ms",
	"core.compute_ms":        "ms",
	"core.samples_per_s":     "1/s",
	"core.spec_ms":           "ms",
	"wire.decode_ms":         "ms",
	"data.decode_ms":         "ms",
	"wire.encode_ms":         "ms",
	"core.eval_ms":           "ms",
	"wire.decode_params_ms":  "ms",
	"ps.assimilate_ms":       "ms",
	"ps.final_accuracy":      "ratio",
	"nn.build_ms":            "ms",
	"blob.fetch_ms":          "ms",
	"blob.cache_hit_ratio":   "ratio",
	"live.bytes_down_per_wu": "bytes",
	"live.bytes_up_per_wu":   "bytes",
	"core.backend_wait_ms":   "ms",
	"core.backend_computed":  "count",
	"core.backend_repeats":   "count",
	"vcsim.self_s":           "s",
	"go.alloc_mb_per_wu":     "MB",
	"go.gc_cpu_fraction":     "ratio",
	"core.compute_share":     "ratio",
	"boinc.upload_rpc_share": "ratio",
	"boinc.sched_rpc_share":  "ratio",
	"trace.wu_per_s":         "1/s",
	"trace.overhead":         "ratio",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 28, "length of the measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}

	clock := &rpcClock{base: http.DefaultTransport}
	http.DefaultTransport = clock
	out, err := w.run(o, clock)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric)}
	var accuracy []float64
	for i, r := range out.reps {
		accuracy = append(accuracy, r.accuracy)
		out.logf("repetition %d: set-up %.3f s, %d wu in %.3f s, final accuracy %.4f, peak RSS %.1f MB",
			i, r.setupS, r.wus, r.targetS, r.accuracy, r.peakMB)
	}
	if o.trace {
		out.layers["ps.final_accuracy"] = median(accuracy)
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{out.layers[name], unit}
		}
	} else {
		var setups, targets, rss []float64
		for _, r := range out.reps {
			setups = append(setups, r.setupS)
			targets = append(targets, r.targetS)
			rss = append(rss, r.peakMB)
		}
		setups = append(setups, out.extraSetups...)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["time_to_target_s"] = metric{median(targets), "s"}
		res.Metrics["wu_per_s"] = metric{wuRate(out.reps), "1/s"}
		res.Metrics["op_p50_ms"] = metric{median(out.opsMS), "ms"}
		res.Metrics["op_p90_ms"] = metric{quantile(out.opsMS, 0.9), "ms"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		out.logf("%s", timingLine("op latency", out.opsMS))
		out.logf("%s", timingLine("set-up", scale(setups, 1e3)))
		out.logf("%s", timingLine("time to target", scale(targets, 1e3)))
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.problems = append(out.problems, "no operation was attempted")
	}

	fmt.Fprintf(stderr, "== %s seed=%d seconds=%g trace=%v reps=%d\n", o.workload, o.seed, o.seconds, o.trace, len(out.reps))
	for _, line := range out.report {
		fmt.Fprintln(stderr, line)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "  %-24s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
