package boinc

import (
	"fmt"
	"sort"
)

// SchedulerConfig tunes the scheduling mechanics. The assignment
// preference itself is a Policy (see policy.go); the fields here are
// invariants the scheduler enforces around whatever the policy picks.
type SchedulerConfig struct {
	// DefaultTimeout applies to workunits that don't set one (seconds).
	DefaultTimeout float64
	// DefaultMaxErrors is the per-workunit error budget.
	DefaultMaxErrors int
	// ReliabilityFloor gates retried workunits: a workunit that has
	// already timed out or failed once is only given to clients whose
	// reliability score is at least this value, unless no such client is
	// asking ("the scheduler can track how reliably clients return results
	// and assign subtasks to more reliable clients", §III-B).
	ReliabilityFloor float64
	// StickyAffinity biases assignment toward clients that already cache a
	// workunit's input files (the BOINC sticky-file feature, §III-B).
	StickyAffinity bool
	// Seed is exposed to policies through PolicyView.Seed so seeded
	// stochastic policies replay deterministically with the run.
	Seed int64
	// Shards stripes the live server's scheduler state across this many
	// independently locked shards (see ShardedScheduler); 0 or 1 keeps
	// the single-shard behaviour, and a bare Scheduler (the simulator's
	// engine) ignores the field entirely.
	Shards int
}

// DefaultSchedulerConfig mirrors the experiments: 5-minute timeout,
// 8-error budget, reliability gating and sticky files on.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{
		DefaultTimeout:   300,
		DefaultMaxErrors: 8,
		ReliabilityFloor: 0.5,
		StickyAffinity:   true,
	}
}

// clientState is the scheduler's view of one client.
type clientState struct {
	id          string
	reliability float64
	cached      map[string]bool
	inFlight    int
	// gone marks a client that left the project (volunteer churn). Gone
	// clients no longer count as reliable-and-available, so retried
	// workunits are not reserved for hosts that will never ask again.
	gone bool
	// cordoned stops new assignments to the client without touching its
	// in-flight work (the ops plane's reversible quarantine: the host
	// stays attached and keeps uploading, it just gets nothing new).
	cordoned bool
}

// Assignment is work handed to a client.
type Assignment struct {
	ResultID   int64
	WUID       int64
	Name       string
	App        string
	InputFiles []string
	// Blobs maps input file names to blob digests (see
	// Workunit.BlobFiles); empty when the data plane is off.
	Blobs    map[string]string `json:"Blobs,omitempty"`
	Payload  []byte
	Deadline float64
}

// Scheduler tracks workunits and results and implements the BOINC
// scheduling mechanics; the assignment preference is delegated to a
// pluggable Policy. It is not goroutine-safe; the HTTP server serializes
// access and the simulator is single-threaded by construction.
type Scheduler struct {
	cfg    SchedulerConfig
	policy Policy

	// idOffset/idStep stride the workunit and result ID spaces so a
	// striped deployment (ShardedScheduler) can give each shard a
	// disjoint residue class: shard i of n allocates IDs ≡ i (mod n),
	// which is what lets uploads route back to the owning shard from the
	// result ID alone. A standalone scheduler uses offset 0, step 1 and
	// produces the historical 1,2,3,… sequence unchanged.
	idOffset, idStep int64

	nextWU, nextRes int64
	wus             map[int64]*Workunit
	results         map[int64]*Result
	pending         []int64 // FIFO of workunit IDs awaiting (re)issue
	clients         map[string]*clientState
	// assignedTo tracks which clients ever received a copy of a
	// replicated workunit (BOINC's one-result-per-user rule, so replicas
	// verify each other across machines).
	assignedTo map[int64]map[string]bool

	// Per-policy index over the pending queue, maintained incrementally
	// so the per-request hot path allocates nothing transient:
	// queued counts pending copies per workunit (O(1) queuedCopies, and
	// completions skip the queue rebuild when no replicas are queued);
	// eligible stamps workunits with the request counter that admitted
	// them, doubling as the per-round dedup set and the validity check
	// for policy picks; candBuf is the reused candidate scratch.
	queued   map[int64]int
	eligible map[int64]int64
	candBuf  []Candidate
	requests int64
	// maxFiles is the largest len(InputFiles) of any workunit ever
	// added: no candidate's CacheScore can exceed it, which is what
	// lets buildView stop scanning for cache-ranked policies.
	maxFiles int
	// issuedBuf and eventBuf are per-request scratch for the issued-ID
	// list and the deferred event batch; both are consumed before
	// RequestWork returns, so reuse is safe and the hot path stops
	// growing fresh slices every call.
	issuedBuf []int64
	eventBuf  []SchedEvent

	// sink receives lifecycle events (nil = no observation). Every event
	// is derived from state already at hand plus the caller-supplied
	// clock, so attaching a sink cannot perturb a simulation.
	sink SchedSink
	// lastNow is the most recent time a clocked entry point saw; it
	// stamps events from entry points without a time parameter
	// (AddWorkunit) and the queue times of reissues.
	lastNow float64
	// inflight counts outstanding results incrementally so queue-depth
	// reporting is O(1) instead of a scan over every result ever issued.
	inflight int
	// expireLB is a lower bound on the earliest outstanding result
	// deadline (valid when expireLBOK). ExpireTimeouts skips its scan
	// entirely while now < expireLB — a scan then could not find anything
	// — which turns the per-request sweep from O(results) into O(1) on
	// the hot path. The bound is maintained conservatively: issuing a
	// result lowers it, completions leave it alone (a stale-low bound
	// only causes one extra scan, never a missed expiry), and each real
	// scan recomputes it exactly.
	expireLB   float64
	expireLBOK bool

	// Counters for reports and tests. Invalid counts results rejected by
	// validation (or reported failed by the client); QuorumRetries counts
	// copies re-enqueued because an earlier result failed, timed out, or
	// a replica had to be replaced to still reach quorum — together the
	// scheduler-side cost of adversarial and flaky hosts.
	Issued, Reissued, Timeouts, Failures, Completions int
	Invalid, QuorumRetries                            int
	// assignMix counts assignments grouped by the policy that made them,
	// so runs with mid-flight policy swaps can report which policy issued
	// what share of the work (the fidelity report's assignment mix).
	assignMix map[string]int
}

// NewScheduler creates a scheduler with the given mechanics config and
// the default paper policy.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 300
	}
	if cfg.DefaultMaxErrors <= 0 {
		cfg.DefaultMaxErrors = 8
	}
	return &Scheduler{
		cfg:        cfg,
		idStep:     1,
		policy:     paperPolicy(),
		wus:        make(map[int64]*Workunit),
		results:    make(map[int64]*Result),
		clients:    make(map[string]*clientState),
		assignedTo: make(map[int64]map[string]bool),
		queued:     make(map[int64]int),
		eligible:   make(map[int64]int64),
		assignMix:  make(map[string]int),
	}
}

// setStripe switches the scheduler onto the (offset, step) ID residue
// class: subsequent workunit and result IDs are offset+step, offset+2·step,
// …, all ≡ offset (mod step). Must be called before any IDs are issued;
// ShardedScheduler uses it at construction.
func (s *Scheduler) setStripe(offset, step int64) {
	if step < 1 {
		step = 1
	}
	s.idOffset, s.idStep = offset, step
	s.nextWU, s.nextRes = offset, offset
}

// SetSink installs the lifecycle event sink (nil disables observation).
func (s *Scheduler) SetSink(sink SchedSink) { s.sink = sink }

// Sink returns the installed lifecycle event sink, for composition.
func (s *Scheduler) Sink() SchedSink { return s.sink }

// AddSink composes an additional sink with whatever is installed.
func (s *Scheduler) AddSink(sink SchedSink) { s.sink = appendSink(s.sink, sink) }

// observe emits one lifecycle event, stamping the queue depths.
func (s *Scheduler) observe(e SchedEvent) {
	if s.sink == nil {
		return
	}
	e.Pending = len(s.pending)
	e.InFlight = s.inflight
	s.sink.OnSchedEvent(e)
}

// AssignmentMix returns a copy of the per-policy assignment counts.
func (s *Scheduler) AssignmentMix() map[string]int {
	mix := make(map[string]int, len(s.assignMix))
	for k, v := range s.assignMix {
		mix[k] = v
	}
	return mix
}

// SetPolicy hot-swaps the assignment policy; nil restores the default
// paper policy. Outstanding results are unaffected — only future
// RequestWork calls decide differently.
func (s *Scheduler) SetPolicy(p Policy) {
	if p == nil {
		p = paperPolicy()
	}
	s.policy = p
}

// Policy returns the active assignment policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// SetDefaultTimeout hot-changes the deadline applied to workunits added
// from now on (already-issued results keep the deadline they were sent
// with, like a real BOINC project reconfiguration).
func (s *Scheduler) SetDefaultTimeout(seconds float64) {
	if seconds > 0 {
		s.cfg.DefaultTimeout = seconds
	}
}

// RetimePending applies a new timeout to every workunit that has not yet
// reached a terminal state, so future (re)issues of outstanding work use
// the new deadline. Already-issued results keep the deadline they were
// sent with.
func (s *Scheduler) RetimePending(seconds float64) {
	if seconds <= 0 {
		return
	}
	for _, wu := range s.wus {
		if wu.status != WUDone && wu.status != WUFailed {
			wu.Timeout = seconds
		}
	}
}

// SetReliabilityFloor hot-changes the reliability gate for retried
// workunits. Values outside [0,1] are clamped.
func (s *Scheduler) SetReliabilityFloor(floor float64) {
	if floor < 0 {
		floor = 0
	}
	if floor > 1 {
		floor = 1
	}
	s.cfg.ReliabilityFloor = floor
}

// Config returns the scheduler's current policy (hot changes included).
func (s *Scheduler) Config() SchedulerConfig { return s.cfg }

// AddWorkunit registers a new workunit and queues it for assignment. It
// returns the assigned ID.
func (s *Scheduler) AddWorkunit(wu Workunit) int64 {
	s.nextWU += s.idStep
	wu.ID = s.nextWU
	if wu.Timeout <= 0 {
		wu.Timeout = s.cfg.DefaultTimeout
	}
	if wu.MaxErrors <= 0 {
		wu.MaxErrors = s.cfg.DefaultMaxErrors
	}
	if wu.Quorum <= 0 {
		wu.Quorum = 1
	}
	if wu.Replication < wu.Quorum {
		wu.Replication = wu.Quorum
	}
	wu.status = WUPending
	w := wu
	// Stamped with the last clocked entry point's time: AddWorkunit has
	// no clock parameter of its own, and the work generator runs inside
	// the same scheduling turn in both engines.
	w.queuedAt = s.lastNow
	s.wus[wu.ID] = &w
	if n := len(wu.InputFiles); n > s.maxFiles {
		s.maxFiles = n
	}
	for i := 0; i < wu.Replication; i++ {
		s.enqueue(wu.ID)
	}
	s.observe(SchedEvent{Kind: EvCreated, T: s.lastNow, WUID: wu.ID, WUName: wu.Name})
	return wu.ID
}

// enqueue appends one pending copy of a workunit, keeping the copy
// count index in step.
func (s *Scheduler) enqueue(id int64) {
	s.pending = append(s.pending, id)
	s.queued[id]++
}

// Workunit returns the tracked workunit by ID, or nil.
func (s *Scheduler) Workunit(id int64) *Workunit { return s.wus[id] }

// Result returns the tracked result by ID, or nil.
func (s *Scheduler) Result(id int64) *Result { return s.results[id] }

// client returns (creating if needed) the state of a client. Only
// operations a client itself initiates (requesting work, caching files)
// may create state; read-only queries go through peek.
func (s *Scheduler) client(id string) *clientState {
	c, ok := s.clients[id]
	if !ok {
		c = &clientState{id: id, reliability: 1, cached: make(map[string]bool)}
		s.clients[id] = c
	}
	return c
}

// peek returns the state of a known client, or nil. Unlike client it
// never registers anything: a lookup must not grow the client table.
func (s *Scheduler) peek(id string) *clientState { return s.clients[id] }

// Reliability returns the reliability score of a client (1.0 for unknown
// clients). It is a pure query: asking about a client the scheduler has
// never seen does not register it.
func (s *Scheduler) Reliability(clientID string) float64 {
	if c := s.peek(clientID); c != nil {
		return c.reliability
	}
	return 1
}

// NoteCached records that a client holds a sticky file locally.
func (s *Scheduler) NoteCached(clientID, file string) {
	s.client(clientID).cached[file] = true
}

// cacheScore counts how many of the workunit's input files the client has.
func cacheScore(c *clientState, wu *Workunit) int {
	n := 0
	for _, f := range wu.InputFiles {
		if c.cached[f] {
			n++
		}
	}
	return n
}

// scanBound reports whether the active policy ranks candidates by
// (CacheScore desc, Pos asc) alone and, if so, the highest CacheScore
// that ranking can see for this client. Once max eligible candidates
// reach that score, no later candidate can outrank them.
func (s *Scheduler) scanBound(c *clientState) (bound int, ok bool) {
	p, _ := s.policy.(*Scored)
	if p == nil || p.rank == rankAny {
		return 0, false
	}
	if p.rank == rankFIFO || (p.rank == rankStickyCache && !s.cfg.StickyAffinity) || len(c.cached) == 0 {
		return 0, true
	}
	return s.maxFiles, true
}

// buildView snapshots the workunits the client may legally receive
// right now: one candidate per pending workunit, minus terminal states,
// minus replicas the client already holds a copy of, minus retries
// reserved for reliable clients. For a cache-ranked policy the FIFO
// scan ends once max candidates reach scanBound, so the view is the
// prefix that decides the top max. The view reuses the scheduler's
// candidate scratch buffer and is only valid until the next request.
func (s *Scheduler) buildView(c *clientState, now float64, max int) PolicyView {
	cands := s.candBuf[:0]
	bound, early := s.scanBound(c)
	settled := 0 // candidates at the bound
	// hasReliableClient is O(clients); resolve it at most once per
	// request instead of once per gated candidate.
	reliableKnown, reliableAny := false, false
	for pos, id := range s.pending {
		wu := s.wus[id]
		if wu == nil || wu.status == WUDone || wu.status == WUFailed {
			continue
		}
		if s.eligible[id] == s.requests {
			continue // one copy of a workunit per request round
		}
		if wu.Replication > 1 && s.assignedTo[id][c.id] {
			continue // replicas must verify each other across clients
		}
		if wu.errors > 0 && c.reliability < s.cfg.ReliabilityFloor {
			if !reliableKnown {
				reliableKnown, reliableAny = true, s.hasReliableClient()
			}
			if reliableAny {
				continue // reserve retries for reliable clients when any exist
			}
		}
		s.eligible[id] = s.requests
		score := cacheScore(c, wu)
		cands = append(cands, Candidate{
			WUID:       id,
			Pos:        pos,
			CacheScore: score,
			Errors:     wu.errors,
			Timeout:    wu.Timeout,
		})
		if early && score >= bound {
			if settled++; settled == max {
				break
			}
		}
	}
	s.candBuf = cands
	return PolicyView{
		Now:              now,
		Seed:             s.cfg.Seed,
		Request:          s.requests,
		Sticky:           s.cfg.StickyAffinity,
		ReliabilityFloor: s.cfg.ReliabilityFloor,
		Candidates:       cands,
	}
}

// RequestWork assigns up to max workunits to the client at virtual time
// now. The active Policy orders the eligible candidates (the default
// paper policy: workunits whose files the client caches first, then
// FIFO; retried workunits gated on client reliability); RequestWork
// itself is mechanics — it builds the candidate view, lets the policy
// choose, and enforces the invariants no policy may break: only
// eligible workunits are issued, each at most once per round and at
// most max per request.
func (s *Scheduler) RequestWork(clientID string, now float64, max int) []Assignment {
	c := s.client(clientID)
	// A client asking for work is present by definition: a volunteer that
	// left (DropClient) and rejoined counts as reliable-and-available
	// again for retry gating.
	c.gone = false
	if c.cordoned || max <= 0 {
		return nil
	}
	s.lastNow = now
	s.requests++
	view := s.buildView(c, now, max)
	if len(view.Candidates) == 0 {
		return nil
	}
	picks := s.policy.Select(view, ClientInfo{ID: c.id, Reliability: c.reliability, InFlight: c.inFlight}, max)

	want := len(picks)
	if max < want {
		want = max
	}
	out := make([]Assignment, 0, want) // escapes to the caller; sized once
	issued := s.issuedBuf[:0]
	events := s.eventBuf[:0] // emitted after the queue is settled
	for _, id := range picks {
		if len(out) >= max {
			break // policy over-selected; hard-cap the batch
		}
		if s.eligible[id] != s.requests {
			continue // not an eligible candidate, or a duplicate pick
		}
		s.eligible[id] = 0 // consumed this round
		wu := s.wus[id]
		// Cache hits must be read before the sticky loop below marks the
		// assigned files as cached.
		hits := cacheScore(c, wu)
		s.nextRes += s.idStep
		res := &Result{
			ID:       s.nextRes,
			WUID:     wu.ID,
			ClientID: clientID,
			SentAt:   now,
			Deadline: now + wu.Timeout,
			Status:   ResInProgress,
		}
		s.results[res.ID] = res
		if !s.expireLBOK || res.Deadline < s.expireLB {
			s.expireLB, s.expireLBOK = res.Deadline, true
		}
		wu.active++
		wu.status = WUInProgress
		c.inFlight++
		s.inflight++
		s.Issued++
		// The one-result-per-user index only matters for replicated
		// workunits (buildView consults it under the same guard), so
		// singleton workunits — the common case — never pay the map.
		if wu.Replication > 1 {
			if s.assignedTo[wu.ID] == nil {
				s.assignedTo[wu.ID] = make(map[string]bool)
			}
			s.assignedTo[wu.ID][clientID] = true
		}
		out = append(out, Assignment{
			ResultID: res.ID,
			WUID:     wu.ID,
			Name:     wu.Name,
			App:      wu.App,
			// Shared with the workunit, not copied: assignments are
			// read-only download descriptors and workunit input lists
			// never mutate after AddWorkunit.
			InputFiles: wu.InputFiles,
			Blobs:      wu.BlobFiles,
			Payload:    wu.Payload,
			Deadline:   res.Deadline,
		})
		issued = append(issued, id)
		if s.sink != nil {
			events = append(events, SchedEvent{
				Kind: EvAssigned, T: now, WUID: wu.ID, ResultID: res.ID,
				Client: clientID, Wait: now - wu.queuedAt,
				CacheHits: hits, CacheFiles: len(wu.InputFiles),
			})
		}
		// Sticky files: the client will cache the inputs it downloads.
		if s.cfg.StickyAffinity {
			for _, f := range wu.InputFiles {
				c.cached[f] = true
			}
		}
	}
	s.dequeueFirst(issued)
	s.issuedBuf = issued[:0]
	if len(out) > 0 {
		s.assignMix[s.policy.Name()] += len(out)
	}
	for _, e := range events {
		s.observe(e)
	}
	s.eventBuf = events[:0]
	return out
}

// dequeueFirst removes the first queued copy of each given workunit
// from the pending FIFO (the copy a candidate's Pos pointed at). Once
// every copy is removed, the rest of the queue moves in one copy.
func (s *Scheduler) dequeueFirst(ids []int64) {
	if len(ids) == 0 {
		return
	}
	remaining := ids
	kept := s.pending[:0]
	for pos, id := range s.pending {
		if len(remaining) == 0 {
			kept = append(kept, s.pending[pos:]...)
			break
		}
		removed := false
		for i, want := range remaining {
			if want == id {
				remaining = append(remaining[:i], remaining[i+1:]...)
				s.queued[id]--
				removed = true
				break
			}
		}
		if !removed {
			kept = append(kept, id)
		}
	}
	s.pending = kept
}

// queuedCopies counts pending-queue entries for a workunit.
func (s *Scheduler) queuedCopies(id int64) int { return s.queued[id] }

// DropClient marks a client as gone from the project. Its in-flight
// results still expire normally; it just stops counting as an available
// reliable host for retry gating.
func (s *Scheduler) DropClient(clientID string) {
	s.client(clientID).gone = true
}

// SetCordoned quarantines (or releases) a client: a cordoned client's
// RequestWork calls return nothing, while its in-flight results complete
// or expire normally. Cordoning a client the scheduler has not seen yet
// registers it, so the quarantine holds from its first contact.
func (s *Scheduler) SetCordoned(clientID string, on bool) {
	s.client(clientID).cordoned = on
}

// Cordoned reports whether a client is quarantined. Pure query.
func (s *Scheduler) Cordoned(clientID string) bool {
	c := s.peek(clientID)
	return c != nil && c.cordoned
}

// ClientSummary is the scheduler's externally visible view of one
// client, for the ops plane's listing and readiness endpoints.
type ClientSummary struct {
	ID          string  `json:"id"`
	Reliability float64 `json:"reliability"`
	InFlight    int     `json:"in_flight"`
	CachedFiles int     `json:"cached_files"`
	Gone        bool    `json:"gone,omitempty"`
	Cordoned    bool    `json:"cordoned,omitempty"`
}

// ClientSummaries returns every client the scheduler has seen, sorted by
// ID. Pure query: it copies state and registers nothing.
func (s *Scheduler) ClientSummaries() []ClientSummary {
	out := make([]ClientSummary, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, ClientSummary{
			ID:          c.id,
			Reliability: c.reliability,
			InFlight:    c.inFlight,
			CachedFiles: len(c.cached),
			Gone:        c.gone,
			Cordoned:    c.cordoned,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// hasReliableClient reports whether any known, still-present client
// meets the floor.
func (s *Scheduler) hasReliableClient() bool {
	for _, c := range s.clients {
		if !c.gone && c.reliability >= s.cfg.ReliabilityFloor {
			return true
		}
	}
	return false
}

// CompleteResult records a returned result. valid=false counts as an error
// (validator rejection or client-reported failure). It returns the
// workunit and whether this completion made the workunit Done (i.e. the
// caller should assimilate this canonical result).
func (s *Scheduler) CompleteResult(resultID int64, valid bool, now float64) (*Workunit, bool, error) {
	res := s.results[resultID]
	if res == nil {
		return nil, false, fmt.Errorf("boinc: unknown result %d", resultID)
	}
	if res.Status != ResInProgress {
		return nil, false, fmt.Errorf("boinc: result %d already %v", resultID, res.Status)
	}
	wu := s.wus[res.WUID]
	c := s.client(res.ClientID)
	s.lastNow = now
	c.inFlight--
	wu.active--
	s.inflight--
	turnaround := now - res.SentAt
	if valid {
		res.Status = ResSuccess
		c.reliability = 0.9*c.reliability + 0.1
		if wu.status == WUDone {
			// A replica already completed this workunit.
			res.Status = ResAbandoned
			s.observe(SchedEvent{Kind: EvValid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
			return wu, false, nil
		}
		wu.valid++
		if wu.valid < wu.Quorum {
			// Quorum not yet reached; make sure enough copies remain in
			// flight or queued to get there.
			if wu.valid+wu.active+s.queuedCopies(wu.ID) < wu.Quorum {
				wu.queuedAt = now
				s.enqueue(wu.ID)
				s.QuorumRetries++
			}
			s.observe(SchedEvent{Kind: EvValid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
			return wu, false, nil
		}
		wu.status = WUDone
		s.Completions++
		// Drop any still-queued replicas of this workunit. The copy-count
		// index makes the common case (nothing queued) free instead of a
		// full queue rebuild per completion.
		if s.queuedCopies(wu.ID) > 0 {
			kept := s.pending[:0]
			for _, id := range s.pending {
				if id != wu.ID {
					kept = append(kept, id)
				}
			}
			s.pending = kept
			delete(s.queued, wu.ID)
		}
		s.observe(SchedEvent{Kind: EvValid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
		s.observe(SchedEvent{Kind: EvWUDone, T: now, WUID: wu.ID, Client: res.ClientID})
		return wu, true, nil
	}
	res.Status = ResError
	c.reliability = 0.9 * c.reliability
	s.Invalid++
	s.observe(SchedEvent{Kind: EvInvalid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
	s.noteFailure(wu)
	return wu, false, nil
}

// noteFailure charges the workunit's error budget and reissues or fails it.
func (s *Scheduler) noteFailure(wu *Workunit) {
	if wu.status == WUDone {
		return
	}
	wu.errors++
	if wu.errors > wu.MaxErrors {
		wu.status = WUFailed
		s.Failures++
		s.observe(SchedEvent{Kind: EvWUFailed, T: s.lastNow, WUID: wu.ID})
		return
	}
	wu.status = WUPending
	wu.queuedAt = s.lastNow
	s.enqueue(wu.ID)
	s.Reissued++
	s.QuorumRetries++
	s.observe(SchedEvent{Kind: EvReissued, T: s.lastNow, WUID: wu.ID})
}

// ExpireTimeouts marks overdue results as timed out and requeues their
// workunits for another client (§III-B fault tolerance). It returns the
// IDs of expired results.
func (s *Scheduler) ExpireTimeouts(now float64) []int64 {
	// Fast path: nothing in flight, or the earliest possible deadline is
	// still ahead — a scan could not expire anything, so skip it. This is
	// observationally identical to scanning and finding nothing, and it
	// keeps the sweep the HTTP server runs before every work request O(1)
	// instead of O(all results ever issued).
	if s.inflight == 0 || (s.expireLBOK && now <= s.expireLB) {
		s.lastNow = now
		return nil
	}
	// Collect first and process in ID order so reissue order (and thus
	// simulation behaviour) is deterministic despite map iteration. The
	// same pass recomputes the exact earliest surviving deadline, which
	// re-arms the fast path above.
	var expired []int64
	nextLB, nextOK := 0.0, false
	for id, res := range s.results {
		if res.Status != ResInProgress {
			continue
		}
		if now > res.Deadline {
			expired = append(expired, id)
		} else if !nextOK || res.Deadline < nextLB {
			nextLB, nextOK = res.Deadline, true
		}
	}
	s.expireLB, s.expireLBOK = nextLB, nextOK
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	s.lastNow = now
	for _, id := range expired {
		res := s.results[id]
		res.Status = ResTimedOut
		wu := s.wus[res.WUID]
		c := s.client(res.ClientID)
		c.inFlight--
		c.reliability = 0.9 * c.reliability
		wu.active--
		s.inflight--
		s.Timeouts++
		s.observe(SchedEvent{Kind: EvTimeout, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: now - res.SentAt})
		s.noteFailure(wu)
	}
	return expired
}

// NextDeadline returns the earliest outstanding result deadline, or ok =
// false when nothing is in flight. The simulator uses it to schedule
// timeout sweeps exactly when they can matter.
func (s *Scheduler) NextDeadline() (float64, bool) {
	best, ok := 0.0, false
	for _, res := range s.results {
		if res.Status == ResInProgress && (!ok || res.Deadline < best) {
			best, ok = res.Deadline, true
		}
	}
	return best, ok
}

// Done reports whether every workunit reached a terminal state.
func (s *Scheduler) Done() bool {
	for _, wu := range s.wus {
		if wu.status != WUDone && wu.status != WUFailed {
			return false
		}
	}
	return true
}

// PendingCount returns the number of queued (unassigned) workunit copies.
func (s *Scheduler) PendingCount() int { return len(s.pending) }

// InFlight returns the number of outstanding results. It is maintained
// incrementally (every transition out of ResInProgress passes through
// CompleteResult or ExpireTimeouts), so the query is O(1) no matter how
// many results the run has issued.
func (s *Scheduler) InFlight() int { return s.inflight }

// SchedStats is a snapshot of one scheduler's lifecycle counters and
// queue depths. ShardedScheduler sums these across shards, so reporting
// code reads one aggregate instead of poking at per-shard fields.
type SchedStats struct {
	Issued, Reissued, Timeouts, Failures, Completions int
	Invalid, QuorumRetries                            int
	Pending, InFlight, Clients                        int
	Done                                              bool
}

// Stats snapshots the scheduler's counters. Pure query.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Issued:        s.Issued,
		Reissued:      s.Reissued,
		Timeouts:      s.Timeouts,
		Failures:      s.Failures,
		Completions:   s.Completions,
		Invalid:       s.Invalid,
		QuorumRetries: s.QuorumRetries,
		Pending:       len(s.pending),
		InFlight:      s.inflight,
		Clients:       len(s.clients),
		Done:          s.Done(),
	}
}
