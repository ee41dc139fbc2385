package core

import (
	"runtime"

	"vcdl/internal/data"
	"vcdl/internal/nn"
)

// Evaluator computes validation/test accuracy of a parameter vector. The
// parameter servers call it after each assimilation (§III-A), one call
// per upload, from as many upload handlers as are in flight, so it must
// not serialize them: on the live server evaluation is most of an
// upload's cost. Each call borrows a private network from a free list of
// at most GOMAXPROCS networks, built on demand, so a serial caller only
// ever builds one. Callers beyond that bound wait for a network, which
// caps evaluation's CPU and memory. Evaluation is a pure function of the
// parameters (SetParameters restores every parameter and state slot), so
// which network serves a call never changes its result.
type Evaluator struct {
	builder func() []nn.Layer
	ds      *data.Dataset
	batch   int
	// idle holds the networks not in use. build holds one token per
	// network not yet built, so at most cap(idle) ever exist and a
	// return to idle never blocks.
	idle  chan *nn.Network
	build chan struct{}
}

// NewEvaluator creates an evaluator over ds. subset > 0 evaluates only the
// first subset samples (a deterministic sample for simulation speed);
// batch controls evaluation minibatch size.
func NewEvaluator(builder func() []nn.Layer, ds *data.Dataset, subset, batch int) *Evaluator {
	if batch <= 0 {
		batch = 100
	}
	use := ds
	if subset > 0 && subset < ds.N() {
		use = ds.Subset(0, subset)
	}
	n := runtime.GOMAXPROCS(0)
	e := &Evaluator{
		builder: builder,
		ds:      use,
		batch:   batch,
		idle:    make(chan *nn.Network, n),
		build:   make(chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		e.build <- struct{}{}
	}
	return e
}

// N returns the number of samples the evaluator scores.
func (e *Evaluator) N() int { return e.ds.N() }

// Accuracy returns classification accuracy of params on the dataset.
func (e *Evaluator) Accuracy(params []float64) float64 {
	_, acc := e.LossAndAccuracy(params)
	return acc
}

// LossAndAccuracy returns mean loss and accuracy of params on the dataset.
func (e *Evaluator) LossAndAccuracy(params []float64) (float64, float64) {
	net := e.get()
	defer func() { e.idle <- net }()
	net.SetParameters(params)
	return net.Evaluate(e.ds.X, e.ds.Labels, e.batch)
}

// get borrows an idle network, builds one if the bound allows, and
// otherwise waits for one to be returned.
func (e *Evaluator) get() *nn.Network {
	select {
	case net := <-e.idle:
		return net
	default:
	}
	select {
	case net := <-e.idle:
		return net
	case <-e.build:
		return nn.NewNetwork(e.builder)
	}
}
