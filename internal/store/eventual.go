package store

import (
	"math/rand"
	"sync"
)

// Eventual is the Redis stand-in: a main-memory key-value store with a
// primary and ReplicaCount asynchronously updated replicas. A read is
// served by a randomly chosen replica; replica i trails the primary by
// i·ReplicaLagOps/ReplicaCount committed writes, so reads may observe
// stale versions. Update performs an optimistic, lock-free
// read-modify-write: under concurrency, two updates may read the same base
// version and the second write silently discards the first (a lost
// update), which is exactly the behaviour the paper accepts in exchange
// for scalability (§III-D).
type Eventual struct {
	Profile       LatencyProfile
	ReplicaCount  int
	ReplicaLagOps int

	mu      sync.RWMutex
	history map[string][]entry // most recent last; trimmed to max lag+1
	rng     *rand.Rand
	rngMu   sync.Mutex

	counter counter
}

// NewEventual creates an eventual-consistency store with the given replica
// topology. lagOps is how many committed writes the slowest replica may
// trail by; 0 keeps all replicas synchronous (useful in tests).
func NewEventual(replicas, lagOps int, seed int64) *Eventual {
	if replicas < 1 {
		replicas = 1
	}
	if lagOps < 0 {
		lagOps = 0
	}
	return &Eventual{
		Profile:       EventualProfile,
		ReplicaCount:  replicas,
		ReplicaLagOps: lagOps,
		history:       make(map[string][]entry),
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// Name implements Store.
func (e *Eventual) Name() string { return "eventual" }

// replicaLag returns the write-lag of replica i.
func (e *Eventual) replicaLag(i int) int {
	return i * e.ReplicaLagOps / e.ReplicaCount
}

// Get implements Store: it reads from a random replica, which may serve a
// version up to its lag behind the primary.
func (e *Eventual) Get(key string) ([]byte, uint64, error) {
	ent, err := e.read(key)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), ent.value...), ent.version, nil
}

// read returns the entry a random replica serves for key.
func (e *Eventual) read(key string) (entry, error) {
	e.rngMu.Lock()
	lag := e.replicaLag(e.rng.Intn(e.ReplicaCount))
	e.rngMu.Unlock()

	e.mu.RLock()
	hist := e.history[key]
	var ent entry
	var ok, stale bool
	if len(hist) > 0 {
		idx := len(hist) - 1 - lag
		if idx < 0 {
			idx = 0
		}
		ent, ok = hist[idx], true
		stale = idx != len(hist)-1
	}
	e.mu.RUnlock()
	if !ok {
		return entry{}, ErrNotFound
	}
	e.counter.add(func(s *Stats) {
		s.Gets++
		if stale {
			s.StaleReads++
		}
		s.BytesRead += uint64(len(ent.value))
		s.ModeledTime += e.Profile.Cost(len(ent.value))
	})
	return ent, nil
}

// Set implements Store. The write commits on the primary immediately;
// replicas observe it later through the retained version history.
func (e *Eventual) Set(key string, value []byte) error {
	e.commit(key, value, nil)
	return nil
}

// commit appends a new version. base is the entry an Update's read
// observed, or nil for a blind Set, which builds on the head. A commit
// on a stale base discards the effect of the writes between base and
// the head. Each entry records its lineage (how many writes its value
// carries), so the commit loses exactly head.lineage − base.lineage
// updates and a value's lineage plus LostUpdates always equals the
// writes made. Counting head − base versions instead would count some
// lost writes twice. The difference is negative
// only when a lagging read resurrects a value that carried more than
// the head; the total never drops below zero.
func (e *Eventual) commit(key string, value []byte, base *entry) {
	v := append([]byte(nil), value...)
	e.mu.Lock()
	defer e.mu.Unlock()
	hist := e.history[key]
	var head entry
	if len(hist) > 0 {
		head = hist[len(hist)-1]
	}
	from := &head
	if base != nil {
		from = base
	}
	hist = append(hist, entry{value: v, version: head.version + 1, lineage: from.lineage + 1})
	if max := e.ReplicaLagOps + 1; len(hist) > max {
		hist = hist[len(hist)-max:]
	}
	e.history[key] = hist
	// Accounted under e.mu so the running total follows commit order.
	e.counter.add(func(s *Stats) {
		s.Sets++
		s.BytesWritten += uint64(len(v))
		s.LostUpdates += head.lineage - from.lineage // two's complement: may subtract
		s.ModeledTime += e.Profile.Cost(len(v))
	})
}

// Update implements Store with optimistic, lossy read-modify-write.
func (e *Eventual) Update(key string, f func(old []byte) []byte) error {
	base, err := e.read(key)
	if err != nil && err != ErrNotFound {
		return err
	}
	e.commit(key, f(append([]byte(nil), base.value...)), &base)
	e.counter.add(func(s *Stats) { s.Updates++ })
	return nil
}

// Stats implements Store.
func (e *Eventual) Stats() Stats { return e.counter.snapshot() }
