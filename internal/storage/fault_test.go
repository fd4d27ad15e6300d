package storage

import (
	"errors"
	"math"
	"testing"
)

func TestFaultyInjectsDeterministically(t *testing.T) {
	f := NewFaulty(NewStore())
	f.SetErrorRate(0.25)
	var pattern []bool
	fails := 0
	for i := 0; i < 100; i++ {
		err := f.TryPut("k", []float64{1})
		pattern = append(pattern, err != nil)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			fails++
		}
	}
	if fails != 25 {
		t.Errorf("fails = %d at rate 0.25 over 100 ops, want 25", fails)
	}
	// A fresh wrapper replays the identical sequence: injection is a
	// function of the op index, not of time or randomness.
	g := NewFaulty(NewStore())
	g.SetErrorRate(0.25)
	for i, want := range pattern {
		if got := g.TryPut("k", []float64{1}) != nil; got != want {
			t.Fatalf("op %d: fail=%v, first run %v", i, got, want)
		}
	}
}

func TestFaultyFailedOpsTouchNothing(t *testing.T) {
	st := NewStore()
	f := NewFaulty(st)
	f.SetErrorRate(1)
	if err := f.TryPut("k", []float64{42}); !errors.Is(err, ErrInjected) {
		t.Fatalf("TryPut err = %v", err)
	}
	if st.Len() != 0 {
		t.Error("failed Put wrote to the store")
	}
	// Rate 0 restores normal behavior on the same wrapper, and so does NaN:
	// it is no rate at all, and must not poison the gate for the next window.
	for _, rate := range []float64{0, math.NaN()} {
		f.SetErrorRate(rate)
		if err := f.TryPut("k", []float64{42}); err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		if v, ok := st.Get("k"); !ok || len(v) != 1 || v[0] != 42 {
			t.Fatalf("rate %g: the store holds %v, %v after a successful Put", rate, v, ok)
		}
	}
	f.SetErrorRate(0.5)
	if f.TryPut("k", nil) != nil || !errors.Is(f.TryPut("k", nil), ErrInjected) {
		t.Error("rate 0.5 after a NaN rate does not fail every second Put")
	}
}
