package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil) = %g, want 0", got)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v, want [7 9]", y)
	}
}

func TestZero(t *testing.T) {
	x := []float64{2, -4}
	Zero(x)
	if x[0] != 0 || x[1] != 0 {
		t.Errorf("Zero = %v", x)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
}

func TestAdd(t *testing.T) {
	y := []float64{1, 2}
	Add([]float64{10, 20}, y)
	if y[0] != 11 || y[1] != 22 {
		t.Errorf("Add = %v", y)
	}
}

func TestSigmoidStable(t *testing.T) {
	cases := map[float64]float64{0: 0.5, 1000: 1, -1000: 0}
	for z, want := range cases {
		if got := Sigmoid(z); math.Abs(got-want) > 1e-9 {
			t.Errorf("Sigmoid(%g) = %g, want %g", z, got, want)
		}
	}
	if err := quick.Check(func(z float64) bool {
		if math.IsNaN(z) {
			return true
		}
		s := Sigmoid(z)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	if err := quick.Check(func(z float64) bool {
		if math.IsNaN(z) || math.Abs(z) > 500 {
			return true
		}
		return math.Abs(Sigmoid(z)+Sigmoid(-z)-1) < 1e-12
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLog1pExp(t *testing.T) {
	if got := Log1pExp(0); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("Log1pExp(0) = %g, want ln2", got)
	}
	if got := Log1pExp(100); math.Abs(got-100) > 1e-9 {
		t.Errorf("Log1pExp(100) = %g, want ~100", got)
	}
	if got := Log1pExp(-100); got <= 0 || got > 1e-40 {
		t.Errorf("Log1pExp(-100) = %g, want tiny positive", got)
	}
}
