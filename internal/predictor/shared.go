package predictor

import (
	"math"
	"sync"
)

// Shared is a prefix tree of online observation histories, for the sessions
// of one framework. They replay one loss sequence: the sessions of a cell
// share an engine seed, and the engine ignores the allocation. Each node is
// one exact (epoch, loss) history; a child extends its parent by one
// observation, matched by float bits. A node caches the PredictTotalEpochs
// result for each target asked, a failed prediction included, so each
// distinct history and target is predicted once however many sessions walk
// it.
//
// The cache is exact because it serves only the default configuration:
// unbounded history, cold fits, no iteration budget. There, a prediction is
// a pure function of the history and the target. ApplyTuning detaches an
// Online from the tree, since a warm or windowed refit also depends on the
// previous fit.
//
// A Shared is safe for concurrent use; one mutex guards the tree. It holds
// no package state: it lives as long as its owner.
type Shared struct {
	mu   sync.Mutex
	root node
}

// NewShared returns an empty history tree.
func NewShared() *Shared { return &Shared{} }

// node is one history: the observations from the first epoch to this one.
type node struct {
	// xs and ys are the history as read-only views. The first child of a
	// node appends to its parent's arrays, so a chain of first children
	// shares one backing array; a later child copies.
	xs, ys   []float64
	children []*node
	preds    []prediction
}

// prediction is one cached PredictTotalEpochs result.
type prediction struct {
	target uint64 // math.Float64bits of the target loss
	total  int
	ok     bool
}

// NewOnline returns an online predictor whose history lives in the tree.
// On a nil Shared it returns a private NewOnline predictor.
func (s *Shared) NewOnline() *Online {
	if s == nil {
		return NewOnline()
	}
	return &Online{shared: s, node: &s.root}
}

// child returns p's child for the observation (x, y), adding it if absent.
func (s *Shared) child(p *node, x, y float64) *node {
	xb, yb := math.Float64bits(x), math.Float64bits(y)
	s.mu.Lock()
	defer s.mu.Unlock()
	d := len(p.xs)
	for _, c := range p.children {
		if math.Float64bits(c.xs[d]) == xb && math.Float64bits(c.ys[d]) == yb {
			return c
		}
	}
	c := &node{}
	if len(p.children) == 0 {
		c.xs, c.ys = append(p.xs, x), append(p.ys, y)
	} else {
		// The slot after p's history may belong to the first child:
		// a full slice expression forces a copy.
		c.xs, c.ys = append(p.xs[:d:d], x), append(p.ys[:d:d], y)
	}
	p.children = append(p.children, c)
	return c
}

// predictionOf returns n's cached prediction for target.
func (s *Shared) predictionOf(n *node, target float64) (total int, ok, known bool) {
	tb := math.Float64bits(target)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range n.preds {
		if p.target == tb {
			return p.total, p.ok, true
		}
	}
	return 0, false, false
}

// storePrediction records n's prediction for target.
func (s *Shared) storePrediction(n *node, target float64, total int, ok bool) {
	tb := math.Float64bits(target)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range n.preds {
		if p.target == tb {
			return // a concurrent walker stored the same result
		}
	}
	n.preds = append(n.preds, prediction{target: tb, total: total, ok: ok})
}
