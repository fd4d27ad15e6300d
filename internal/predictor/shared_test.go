package predictor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sharedStreams returns observation streams that exercise the tree: random
// noisy curves that share prefixes of random length and then diverge, a
// stream that repeats epochs (as after a restart), a plateau whose curve
// never reaches the targets, and one whose losses turn NaN.
func sharedStreams(seed int64) [][]obsPoint {
	rng := rand.New(rand.NewSource(seed))
	curve := func(e int, a, c float64) float64 { return 1/(a*float64(e)+1) + c }
	base := make([]obsPoint, 40)
	for i := range base {
		base[i] = obsPoint{i + 1, curve(i+1, 0.08, 0.3) * (1 + 0.02*rng.NormFloat64())}
	}
	var streams [][]obsPoint
	for k := 0; k < 6; k++ {
		cut := rng.Intn(len(base))
		s := append([]obsPoint(nil), base[:cut]...)
		a := 0.04 + 0.1*rng.Float64()
		for e := cut + 1; e <= 40; e++ {
			s = append(s, obsPoint{e, curve(e, a, 0.3) * (1 + 0.02*rng.NormFloat64())})
		}
		streams = append(streams, s)
	}
	streams = append(streams, append([]obsPoint(nil), base...)) // an exact repeat
	restart := append([]obsPoint(nil), base[:12]...)
	restart = append(restart, base[9:30]...) // epochs 10-12 again
	streams = append(streams, restart)
	plateau := append([]obsPoint(nil), base[:6]...)
	for e := 7; e <= 30; e++ {
		plateau = append(plateau, obsPoint{e, base[5].loss})
	}
	streams = append(streams, plateau)
	nan := append([]obsPoint(nil), base[:8]...)
	for e := 9; e <= 14; e++ {
		nan = append(nan, obsPoint{e, math.NaN()})
	}
	return append(streams, nan)
}

type obsPoint struct {
	epoch int
	loss  float64
}

// sharedTargets are the losses predicted after every observation: one the
// curves reach, one at their floor and one below it.
var sharedTargets = [...]float64{0.36, 0.3, 0.2}

// onlineStep is what an Online answers after one observation.
type onlineStep struct {
	totals [len(sharedTargets)]int
	oks    [len(sharedTargets)]bool
	curve  [3]uint64
	curved bool
}

// replay feeds stream to o and records its answers after each observation.
// Curve is read before the predictions on odd epochs and after them on
// even ones, so both orders of the cache reads run.
func replay(o *Online, stream []obsPoint) []onlineStep {
	steps := make([]onlineStep, len(stream))
	for i, p := range stream {
		o.Observe(p.epoch, p.loss)
		st := &steps[i]
		readCurve := func() {
			if c, ok := o.Curve(); ok {
				st.curved = true
				for j := range c {
					st.curve[j] = math.Float64bits(c[j])
				}
			}
		}
		if p.epoch%2 == 1 {
			readCurve()
		}
		for j, target := range sharedTargets {
			st.totals[j], st.oks[j] = o.PredictTotalEpochs(target)
		}
		if p.epoch%2 == 0 {
			readCurve()
		}
	}
	return steps
}

func checkSteps(t *testing.T, name string, got, want []onlineStep) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s, observation %d: shared %+v, private %+v", name, i+1, got[i], want[i])
			return
		}
	}
}

// TestSharedMatchesPrivate: a predictor whose history lives in a Shared tree
// returns the same bits from PredictTotalEpochs and Curve as a private one
// fed the same stream, whichever predictor walked a history first.
func TestSharedMatchesPrivate(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		streams := sharedStreams(seed)
		s := NewShared()
		for round := 0; round < 2; round++ { // the second round reads only cached nodes
			for k, stream := range streams {
				want := replay(NewOnline(), stream)
				checkSteps(t, "stream", replay(s.NewOnline(), stream), want)
				if t.Failed() {
					t.Fatalf("seed %d, round %d, stream %d", seed, round, k)
				}
			}
		}
	}
}

// TestSharedConcurrent: eight goroutines walking one tree at once get the
// private answers. Run it under -race.
func TestSharedConcurrent(t *testing.T) {
	streams := sharedStreams(7)
	want := make([][]onlineStep, len(streams))
	for k, stream := range streams {
		want[k] = replay(NewOnline(), stream)
	}
	s := NewShared()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range streams {
				k := (g + i) % len(streams)
				checkSteps(t, "concurrent stream", replay(s.NewOnline(), streams[k]), want[k])
			}
		}()
	}
	wg.Wait()
}

// fourWalkers feeds one 60-epoch stream to four predictors of s in
// lockstep, each predicting after every observation.
func fourWalkers(s *Shared) {
	preds := []*Online{s.NewOnline(), s.NewOnline(), s.NewOnline(), s.NewOnline()}
	for e := 1; e <= 60; e++ {
		for _, o := range preds {
			o.Observe(e, obsCurve(e))
			o.PredictTotalEpochs(0.32)
		}
	}
}

// storedPredictions counts the predictions cached in n's subtree.
func storedPredictions(n *node) int {
	c := len(n.preds)
	for _, k := range n.children {
		c += storedPredictions(k)
	}
	return c
}

// TestSharedFitsOncePerHistory: four predictors fed one stream through one
// tree store one prediction per distinct history, not four: the first
// predictor to reach a history fits it, and the other three read its answer.
func TestSharedFitsOncePerHistory(t *testing.T) {
	s := NewShared()
	fourWalkers(s)
	if got, want := storedPredictions(&s.root), 60-MinPoints+1; got != want {
		t.Errorf("four predictors stored %d predictions, want %d (one per distinct history)", got, want)
	}
}

// TestSharedWalkZeroAlloc: a predictor observing and predicting along
// existing nodes allocates nothing.
func TestSharedWalkZeroAlloc(t *testing.T) {
	s := NewShared()
	fourWalkers(s)
	o := s.NewOnline()
	e := 1
	if avg := testing.AllocsPerRun(50, func() {
		o.Observe(e, obsCurve(e))
		o.PredictTotalEpochs(0.32)
		e++
	}); avg != 0 {
		t.Errorf("observe+predict along existing nodes allocates %.2f/op, want 0", avg)
	}
}

// TestApplyTuningLeavesTree: a tuned predictor copies its history out of
// the tree, so what it observes next never reaches the nodes other
// predictors read: not the one a step deeper on the same path, whose
// history may share the tuned predictor's backing array, nor any later.
func TestApplyTuningLeavesTree(t *testing.T) {
	s := NewShared()
	stream := sharedStreams(3)[0]
	want := replay(NewOnline(), stream)
	deeper := s.NewOnline()
	replay(deeper, stream[:11])
	tuned := s.NewOnline()
	for _, p := range stream[:10] {
		tuned.Observe(p.epoch, p.loss)
	}
	tuned.ApplyTuning(Tuning{WarmStart: true})
	for e := 100; e < 130; e++ {
		tuned.Observe(e, 5)
	}
	checkSteps(t, "predictor deeper on the path", replay(deeper, stream[11:]), want[11:])
	checkSteps(t, "predictor after", replay(s.NewOnline(), stream), want)
}
