package boinc

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// newPolicyScheduler builds a scheduler running the named registered
// policy with a fixed seed.
func newPolicyScheduler(t *testing.T, name string, floor float64) *Scheduler {
	t.Helper()
	p, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 100
	cfg.ReliabilityFloor = floor
	cfg.Seed = 42
	s := NewScheduler(cfg)
	s.SetPolicy(p)
	return s
}

// TestPolicyConformance runs every registered policy through the
// invariants no policy may break: determinism under a fixed seed,
// respecting max, never handing one client two copies of a replicated
// workunit, honouring the reliability floor on retries, and not letting
// gone clients hold the retry gate open.
func TestPolicyConformance(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Run("determinism", func(t *testing.T) { conformDeterminism(t, name) })
			t.Run("max", func(t *testing.T) { conformMax(t, name) })
			t.Run("replication", func(t *testing.T) { conformReplication(t, name) })
			t.Run("reliability-floor", func(t *testing.T) { conformFloor(t, name) })
			t.Run("gone-clients", func(t *testing.T) { conformGone(t, name) })
		})
	}
}

// conformSequence drives one fixed workload and returns the assignment
// log.
func conformSequence(t *testing.T, name string) []string {
	s := newPolicyScheduler(t, name, 0)
	for i := 0; i < 20; i++ {
		s.AddWorkunit(Workunit{
			Name:       fmt.Sprintf("wu%02d", i),
			InputFiles: []string{fmt.Sprintf("shard%d", i%5)},
			Timeout:    float64(50 + 10*(i%4)),
		})
	}
	s.NoteCached("c1", "shard2")
	var log []string
	now := 0.0
	for round := 0; round < 12; round++ {
		now += 5
		for _, id := range []string{"c1", "c2", "c3"} {
			for _, a := range s.RequestWork(id, now, 2) {
				log = append(log, fmt.Sprintf("%s<-%d", id, a.WUID))
				valid := (a.WUID+int64(round))%3 != 0
				s.CompleteResult(a.ResultID, valid, now+1)
			}
		}
	}
	return log
}

func conformDeterminism(t *testing.T, name string) {
	a := conformSequence(t, name)
	b := conformSequence(t, name)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different assignments:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("policy assigned nothing")
	}
}

func conformMax(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0)
	for i := 0; i < 30; i++ {
		s.AddWorkunit(Workunit{Name: "wu"})
	}
	for _, max := range []int{0, 1, 3, 7, 100} {
		got := len(s.RequestWork("c1", 0, max))
		if got > max {
			t.Fatalf("max=%d but %d assigned", max, got)
		}
		if max > 0 && got == 0 && s.PendingCount() > 0 {
			t.Fatalf("max=%d, pending work, nothing assigned", max)
		}
	}
}

func conformReplication(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0)
	for i := 0; i < 8; i++ {
		s.AddWorkunit(Workunit{Name: fmt.Sprintf("r%d", i), Replication: 3})
	}
	got := map[string]map[int64]int{}
	for round := 0; round < 10; round++ {
		for _, id := range []string{"c1", "c2", "c3", "c4"} {
			for _, a := range s.RequestWork(id, float64(round), 4) {
				if got[id] == nil {
					got[id] = map[int64]int{}
				}
				got[id][a.WUID]++
				if got[id][a.WUID] > 1 {
					t.Fatalf("round %d: client %s got workunit %d twice", round, id, a.WUID)
				}
			}
		}
	}
}

func conformFloor(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0.9)
	s.AddWorkunit(Workunit{Name: "wu-a", Timeout: 10})
	s.AddWorkunit(Workunit{Name: "wu-b", Timeout: 10})
	// "bad" fails both workunits, sinking its score below the floor and
	// turning every pending workunit into a retry.
	for _, a := range s.RequestWork("bad", 0, 2) {
		s.CompleteResult(a.ResultID, false, 0)
	}
	if s.Reliability("bad") >= 0.9 {
		t.Fatalf("bad reliability still %v", s.Reliability("bad"))
	}
	// "good" is known and reliable (registered by asking, even for 0).
	s.RequestWork("good", 1, 0)
	// Whatever the policy prefers, every candidate is a retry, so the
	// unreliable client must get nothing...
	if asn := s.RequestWork("bad", 2, 5); len(asn) != 0 {
		t.Fatalf("policy %s: retried workunits reached an unreliable client: %v", name, asn)
	}
	// ...while the reliable client receives them.
	if asn := s.RequestWork("good", 3, 5); len(asn) == 0 {
		t.Fatalf("policy %s: reliable client did not receive the retries", name)
	}
}

func conformGone(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0.9)
	s.AddWorkunit(Workunit{Name: "wu", Timeout: 10})
	for i := 0; i < 6; i++ {
		asn := s.RequestWork("bad", 0, 1)
		if len(asn) == 0 {
			break
		}
		s.CompleteResult(asn[0].ResultID, false, 0)
	}
	// "good" is known and reliable, so the retry is reserved for it.
	s.RequestWork("good", 0, 0)
	if asn := s.RequestWork("bad", 2, 5); len(asn) != 0 {
		t.Fatalf("retried workunit assigned past the gate: %v", asn)
	}
	// Once "good" is gone it must stop holding the gate: the remaining
	// client gets the retry instead of starving it forever.
	s.DropClient("good")
	if asn := s.RequestWork("bad", 3, 5); len(asn) == 0 {
		t.Fatalf("policy %s: retry starved behind a gone client", name)
	}
}

// referenceSelection reimplements the pre-policy-API RequestWork
// selection (full stable sort over every eligible candidate, scored by
// score) directly against the scheduler's state. A cache-ranked policy
// must match it workunit-for-workunit however early the scheduler ends
// its scan: this is the byte-identical contract.
func referenceSelection(s *Scheduler, clientID string, max int, score func(*clientState, *Workunit) int) []int64 {
	c := s.peek(clientID)
	if c == nil {
		c = &clientState{id: clientID, reliability: 1, cached: map[string]bool{}}
	}
	type cand struct {
		pos   int
		id    int64
		score int
	}
	var cands []cand
	seen := map[int64]bool{}
	for pos, id := range s.pending {
		wu := s.wus[id]
		if wu == nil || wu.status == WUDone || wu.status == WUFailed {
			continue
		}
		if seen[id] {
			continue
		}
		if wu.Replication > 1 && s.assignedTo[id][clientID] {
			continue
		}
		if wu.errors > 0 && c.reliability < s.cfg.ReliabilityFloor && s.hasReliableClient() {
			continue
		}
		seen[id] = true
		cands = append(cands, cand{pos: pos, id: id, score: score(c, wu)})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	var out []int64
	for _, cd := range cands {
		out = append(out, cd.id)
	}
	return out
}

// referenceScore is the full-scan ranking of a cache-ranked built-in
// policy under the given sticky-affinity setting.
func referenceScore(policy string, sticky bool) func(*clientState, *Workunit) int {
	if policy == "fifo" || (policy == "paper" && !sticky) {
		return func(*clientState, *Workunit) int { return 0 }
	}
	return cacheScore
}

// referenceInputs gives workunit i of the reference workload its input
// files: some have none, some list one file twice (scoring 2 for a
// single cached file), the rest list two distinct files.
func referenceInputs(i int) []string {
	switch {
	case i%5 == 0:
		return nil
	case i%7 == 3:
		f := fmt.Sprintf("f%d", i%4)
		return []string{f, f}
	default:
		return []string{fmt.Sprintf("f%d", i%4), fmt.Sprintf("g%d", i%3)}
	}
}

// TestPaperPolicyMatchesReference drives randomized workloads and checks
// every RequestWork of each cache-ranked policy (paper, fifo,
// locality-first), with sticky affinity on and off, against the
// full-scan reference selection. Backlogs run far larger than max,
// fresh clients ask with empty caches, workunits arrive mid-run with
// more input files than any before, and caches also grow outside
// assignment.
func TestPaperPolicyMatchesReference(t *testing.T) {
	for _, name := range []string{"paper", "fifo", "locality-first"} {
		for _, sticky := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/sticky=%v", name, sticky), func(t *testing.T) {
				checkReference(t, name, sticky)
			})
		}
	}
}

func checkReference(t *testing.T, name string, sticky bool) {
	score := referenceScore(name, sticky)
	f := func(backlog uint8, ops []uint8) bool {
		s := newPolicyScheduler(t, name, DefaultSchedulerConfig().ReliabilityFloor)
		s.cfg.DefaultTimeout = 10
		s.cfg.DefaultMaxErrors = 1 << 20
		s.cfg.StickyAffinity = sticky
		n := 12 + int(backlog)
		for i := 0; i < n; i++ {
			s.AddWorkunit(Workunit{
				Name:        fmt.Sprintf("wu%d", i),
				InputFiles:  referenceInputs(i),
				Replication: 1 + i%2,
			})
		}
		clients := []string{"a", "b", "c"}
		fresh := 0
		now := 0.0
		var open []int64
		for _, op := range ops {
			now += float64(op%5) / 2
			client := clients[int(op)%len(clients)]
			switch op % 6 {
			case 0, 1:
				if op%7 == 6 {
					fresh++
					client = fmt.Sprintf("new%d", fresh) // empty cache
				}
				max := 1 + int(op)%3
				want := referenceSelection(s, client, max, score)
				asns := s.RequestWork(client, now, max)
				var got []int64
				for _, a := range asns {
					got = append(got, a.WUID)
					open = append(open, a.ResultID)
				}
				if !reflect.DeepEqual(got, want) {
					t.Logf("client %s max %d: got %v want %v", client, max, got, want)
					return false
				}
			case 2:
				if len(open) > 0 {
					id := open[0]
					open = open[1:]
					if s.Result(id).Status == ResInProgress {
						s.CompleteResult(id, op%3 != 0, now)
					}
				}
			case 3:
				s.ExpireTimeouts(now)
			case 4:
				s.NoteCached(client, fmt.Sprintf("f%d", op%4))
			case 5:
				// More input files than any earlier workunit: raises the
				// scan bound mid-run.
				n++
				s.AddWorkunit(Workunit{
					Name:       fmt.Sprintf("wu%d", n),
					InputFiles: []string{fmt.Sprintf("f%d", op%4), fmt.Sprintf("g%d", op%3), fmt.Sprintf("h%d", n)},
				})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestWorkScanStopsEarly pins the stopping rule structurally: on
// an 8000-workunit backlog with no input files, a cache-ranked policy
// builds at most one candidate for a one-slot request, while a policy
// that declares no ranking still sees the whole backlog.
func TestRequestWorkScanStopsEarly(t *testing.T) {
	s := NewScheduler(DefaultSchedulerConfig())
	for i := 0; i < 8000; i++ {
		s.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i)})
	}
	s.NoteCached("warm", "unrelated")
	for _, client := range []string{"cold", "warm"} {
		if asns := s.RequestWork(client, 0, 1); len(asns) != 1 {
			t.Fatalf("%s: got %d assignments, want 1", client, len(asns))
		}
		if n := len(s.candBuf); n > 1 {
			t.Fatalf("%s: RequestWork(max=1) built %d candidates, want at most 1", client, n)
		}
	}
	s.SetPolicy(&Scored{Label: "custom"})
	pending := s.PendingCount()
	s.RequestWork("cold", 0, 1)
	if n := len(s.candBuf); n != pending {
		t.Fatalf("undeclared policy saw %d candidates, want the full %d", n, pending)
	}
}

// rogue policy for TestSchedulerEnforcesInvariants: returns duplicate,
// unknown and over-max picks.
type rogue struct{}

func (rogue) Name() string { return "rogue" }
func (rogue) Select(view PolicyView, _ ClientInfo, max int) []int64 {
	var out []int64
	for i := 0; i < 3; i++ {
		for _, c := range view.Candidates {
			out = append(out, c.WUID) // every candidate three times
		}
	}
	return append(out, 99999, -1) // plus ids that were never workunits
}

// TestSchedulerEnforcesInvariants pins the mechanics/policy split: a
// misbehaving policy cannot over-assign, double-assign or issue
// non-candidates — it degrades to a smaller assignment, never an
// invalid one.
func TestSchedulerEnforcesInvariants(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	s := NewScheduler(cfg)
	s.SetPolicy(rogue{})
	for i := 0; i < 5; i++ {
		s.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i)})
	}
	asns := s.RequestWork("c1", 0, 3)
	if len(asns) != 3 {
		t.Fatalf("rogue policy issued %d assignments, want 3", len(asns))
	}
	seen := map[int64]bool{}
	for _, a := range asns {
		if seen[a.WUID] {
			t.Fatalf("workunit %d issued twice in one round", a.WUID)
		}
		seen[a.WUID] = true
		if s.Workunit(a.WUID) == nil {
			t.Fatalf("assignment for unknown workunit %d", a.WUID)
		}
	}
	if s.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d, want 2", s.PendingCount())
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []string{"deadline-aware", "fifo", "locality-first", "paper", "random", "reliability-weighted"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	if _, err := NewPolicy("nope"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("unknown policy error = %v", err)
	}
	if _, err := NewPolicy("paper", "extra"); err == nil {
		t.Fatal("paper with arguments must error")
	}
	if _, err := NewPolicy("random", "not-a-seed"); err == nil {
		t.Fatal("random with junk seed must error")
	}
	if p, err := NewPolicy("random", "7"); err != nil || p.Name() != "random" {
		t.Fatalf("random 7: %v %v", p, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterPolicy("paper", func(...string) (Policy, error) { return nil, nil })
}

// TestPolicyBehaviours spot-checks that each built-in actually expresses
// its preference (the conformance suite only checks invariants).
func TestPolicyBehaviours(t *testing.T) {
	t.Run("fifo-ignores-cache", func(t *testing.T) {
		s := newPolicyScheduler(t, "fifo", 0)
		s.NoteCached("c1", "shardA")
		s.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"shardB"}})
		s.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"shardA"}})
		asn := s.RequestWork("c1", 0, 1)
		if len(asn) != 1 || asn[0].Name != "b" {
			t.Fatalf("fifo did not pick the oldest workunit: %+v", asn)
		}
	})
	t.Run("locality-beats-fifo", func(t *testing.T) {
		s := newPolicyScheduler(t, "locality-first", 0)
		s.NoteCached("c1", "shardA")
		s.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"shardB"}})
		s.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"shardA"}})
		asn := s.RequestWork("c1", 0, 1)
		if len(asn) != 1 || asn[0].Name != "a" {
			t.Fatalf("locality-first ignored the cached shard: %+v", asn)
		}
	})
	t.Run("deadline-aware-edf", func(t *testing.T) {
		s := newPolicyScheduler(t, "deadline-aware", 0)
		s.AddWorkunit(Workunit{Name: "lax", Timeout: 900})
		s.AddWorkunit(Workunit{Name: "tight", Timeout: 60})
		asn := s.RequestWork("c1", 0, 1)
		if len(asn) != 1 || asn[0].Name != "tight" {
			t.Fatalf("deadline-aware did not pick the tightest deadline: %+v", asn)
		}
	})
	t.Run("reliability-weighted-retry-placement", func(t *testing.T) {
		// The floor is the pivot: clients below it push retries back,
		// clients above it pull them forward. A 0.95 floor puts one
		// failure (reliability 0.9) below and a fresh client above.
		s := newPolicyScheduler(t, "reliability-weighted", 0.95)
		// One retried workunit (errors > 0), one fresh one behind it.
		s.AddWorkunit(Workunit{Name: "retry", Timeout: 10})
		asn := s.RequestWork("flaky", 0, 1)
		s.CompleteResult(asn[0].ResultID, false, 0) // errors=1, reliability sinks
		s.AddWorkunit(Workunit{Name: "fresh"})
		// The unreliable client is steered to the fresh workunit first
		// (it still sees the retry: it is the only known client, so the
		// mechanics gate stays open).
		asn = s.RequestWork("flaky", 1, 1)
		if len(asn) != 1 || asn[0].Name != "fresh" {
			t.Fatalf("unreliable client was not steered to fresh work: %+v", asn)
		}
		// A reliable client prefers the retried workunit.
		s2 := newPolicyScheduler(t, "reliability-weighted", 0.95)
		s2.AddWorkunit(Workunit{Name: "retry", Timeout: 10})
		asn = s2.RequestWork("flaky", 0, 1)
		s2.CompleteResult(asn[0].ResultID, false, 0)
		s2.AddWorkunit(Workunit{Name: "fresh"})
		asn = s2.RequestWork("steady", 1, 1)
		if len(asn) != 1 || asn[0].Name != "retry" {
			t.Fatalf("reliable client was not steered to the retry: %+v", asn)
		}
	})
	t.Run("random-seed-changes-order", func(t *testing.T) {
		order := func(seed int64) []int64 {
			cfg := DefaultSchedulerConfig()
			cfg.Seed = seed
			s := NewScheduler(cfg)
			p, err := NewPolicy("random")
			if err != nil {
				t.Fatal(err)
			}
			s.SetPolicy(p)
			for i := 0; i < 16; i++ {
				s.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i)})
			}
			var ids []int64
			for _, a := range s.RequestWork("c1", 0, 8) {
				ids = append(ids, a.WUID)
			}
			return ids
		}
		a, b := order(1), order(2)
		if reflect.DeepEqual(a, b) {
			t.Fatalf("different run seeds produced the identical random order %v", a)
		}
		if !reflect.DeepEqual(order(1), order(1)) {
			t.Fatal("same seed must reproduce the order")
		}
	})
	t.Run("scored-combinator-weights", func(t *testing.T) {
		// Heavily weighted EDF term must override the cache term.
		p := &Scored{Label: "combo", Terms: []Term{
			{Name: "cache", Weight: 1, Score: func(_ PolicyView, _ ClientInfo, c Candidate) float64 {
				return float64(c.CacheScore)
			}},
			{Name: "edf", Weight: 100, Score: func(_ PolicyView, _ ClientInfo, c Candidate) float64 {
				return -c.Timeout / 1000
			}},
		}}
		cfg := DefaultSchedulerConfig()
		s := NewScheduler(cfg)
		s.SetPolicy(p)
		s.NoteCached("c1", "shardA")
		s.AddWorkunit(Workunit{Name: "cached-lax", InputFiles: []string{"shardA"}, Timeout: 900})
		s.AddWorkunit(Workunit{Name: "cold-tight", InputFiles: []string{"shardB"}, Timeout: 60})
		asn := s.RequestWork("c1", 0, 1)
		if len(asn) != 1 || asn[0].Name != "cold-tight" {
			t.Fatalf("weighted terms not combined: %+v", asn)
		}
		if p.Name() != "combo" {
			t.Fatalf("Name() = %q", p.Name())
		}
	})
}
