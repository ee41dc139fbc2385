package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a timing report may quote, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tailLevel returns the highest percentile in tailLevels that still has at
// least ten samples beyond it for n samples, or 0 when none does. A tail
// read off fewer samples than that is a single outlier, not a percentile.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// timingLine formats one named timing sample set (see timingSummary).
func timingLine(name string, ms []float64) string {
	return fmt.Sprintf("%-26s %s", name, timingSummary(ms))
}

// timingSummary formats timings in ms as the sample count, the median
// and the highest percentile with at least ten samples beyond it.
func timingSummary(ms []float64) string {
	if len(ms) == 0 {
		return "n=0"
	}
	line := fmt.Sprintf("n=%-6d p50=%9.3f ms", len(ms), median(ms))
	if p := tailLevel(len(ms)); p > 0 {
		line += fmt.Sprintf("  p%s=%9.3f ms", strconv.FormatFloat(p, 'f', -1, 64), quantile(ms, p/100))
	} else {
		line += "  (too few samples for a tail percentile)"
	}
	return line
}

// rssMB reads the process's current resident set size (VmRSS).
func rssMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmRSS missing from /proc/self/status")
}

// rssPeriod is how often sampleRSS reads the resident set size.
const rssPeriod = 10 * time.Millisecond

// sampleRSS samples the resident set size until the returned function is
// called, which stops the sampler and returns the peak seen, in MB. The
// kernel's own peak (VmHWM) covers the whole process lifetime, so it
// would grow with the number of repetitions a run makes.
func sampleRSS() (stop func() (float64, error)) {
	done := make(chan struct{})
	type result struct {
		peak float64
		err  error
	}
	res := make(chan result)
	go func() {
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		var r result
		sample := func() {
			mb, err := rssMB()
			r.peak = max(r.peak, mb)
			if r.err == nil {
				r.err = err
			}
		}
		sample()
		for {
			select {
			case <-t.C:
				sample()
			case <-done:
				sample()
				res <- r
				return
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		r := <-res
		return r.peak, r.err
	}
}

// goSample is a runtime/metrics reading for the allocation and GC figures.
type goSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// goLayer turns two runtime readings and the workunits completed between
// them into the go.* per-layer metrics.
func goLayer(layers map[string]float64, before, after goSample, wus int) {
	if wus > 0 {
		layers["go.alloc_mb_per_wu"] = (after.allocBytes - before.allocBytes) / float64(wus) / (1 << 20)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		layers["go.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
