package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one workunit
// share WU (the scheduler's result ID; 0 for work no result owns, such
// as an empty scheduler reply), and Parent names the span that caused it.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	WU     int64   `json:"wu,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same loop serves traced and untraced runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name a parent that is recorded
// after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id, parent int64, name string, wu int64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, WU: wu,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	t.mu.Unlock()
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms []float64
	for _, s := range t.spans {
		if s.Name == name {
			ms = append(ms, s.dur()*1e3)
		}
	}
	return ms
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name  string
	count int
	self  float64 // seconds
	ms    []float64
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of its interval covered by its children. Rows are sorted by self
// time, largest first; total is the summed duration of the root spans.
func (t *tracer) selfTimes() (rows []layerRow, total float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerRow)
	for _, s := range t.spans {
		if s.Parent == 0 {
			total += s.dur()
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		r.count++
		r.self += s.dur() - covered(s, children[s.ID])
		r.ms = append(r.ms, s.dur()*1e3)
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, total
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	sum := 0.0
	curS, curE := kids[0].Start, kids[0].End
	flush := func() {
		s, e := max(curS, parent.Start), min(curE, parent.End)
		if e > s {
			sum += e - s
		}
	}
	for _, k := range kids[1:] {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
			continue
		}
		curE = max(curE, k.End)
	}
	flush()
	return sum
}

// selfShare returns the named layer's self time as a share of the root
// spans' total duration (0 when the layer or the roots are absent).
func selfShare(rows []layerRow, total float64, name string) float64 {
	if total <= 0 {
		return 0
	}
	for _, r := range rows {
		if r.name == name {
			return r.self / total
		}
	}
	return 0
}

// tableLines formats the per-layer self-time table.
func tableLines(workload string, rows []layerRow, total float64) []string {
	lines := []string{
		fmt.Sprintf("self time by layer (%s; shares of %.2f s of root-span time)", workload, total),
		fmt.Sprintf("  %-22s %7s %9s %7s  %s", "layer", "spans", "self_s", "share", "span duration"),
	}
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = r.self / total
		}
		lines = append(lines, fmt.Sprintf("  %-22s %7d %9.3f %6.1f%%  %s", r.name, r.count, r.self, 100*share, timingSummary(r.ms)))
	}
	return lines
}

// traceDir holds the span files, under the build directory the run
// script already keeps out of version control.
const traceDir = ".bench_build/trace"

// writeSpans dumps every span as JSON lines under dir.
func (t *tracer) writeSpans(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("flush spans: %w", err)
	}
	return path, f.Close()
}

// finishTrace computes self-time shares from the client-loop spans,
// prints the table and writes the spans out.
func finishTrace(o opts, tr *tracer, out *outcome) error {
	rows, total := tr.selfTimes()
	L := out.layers
	// sim-fleet's real backend computes inside the simulator's wait.
	L["core.compute_share"] = selfShare(rows, total, "core.compute") + selfShare(rows, total, "core.backend_wait")
	L["boinc.upload_rpc_share"] = selfShare(rows, total, "boinc.upload_rpc")
	L["boinc.sched_rpc_share"] = selfShare(rows, total, "boinc.sched_rpc")
	out.report = append(out.report, tableLines(o.workload, rows, total)...)
	if len(rows) > 0 {
		out.logf("dominant layer (%s): %s, %.1f%% of root-span time", o.workload, rows[0].name, 100*rows[0].self/total)
	}
	path, err := tr.writeSpans(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return err
	}
	out.logf("spans written to %s", path)
	return nil
}
