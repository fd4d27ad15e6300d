package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestProfilesMatchPaper(t *testing.T) {
	h := Higgs()
	if h.Samples != 11_000_000 || h.Features != 28 || h.Task != BinaryClassification {
		t.Errorf("Higgs profile wrong: %+v", h)
	}
	c := Cifar10()
	if c.Samples != 60_000 || c.Classes != 10 {
		t.Errorf("Cifar10 profile wrong: %+v", c)
	}
	i := IMDb()
	if i.Samples != 25_000 || i.Features != 292 {
		t.Errorf("IMDb profile wrong: %+v", i)
	}
	y := YFCC()
	if y.Features != 4096 || y.Task != Regression {
		t.Errorf("YFCC profile wrong: %+v", y)
	}
}

func TestPartitionSizeMB(t *testing.T) {
	h := Higgs()
	if got := h.PartitionSizeMB(10); math.Abs(got-h.SizeMB/10) > 1e-9 {
		t.Errorf("PartitionSizeMB(10) = %g", got)
	}
	if got := h.PartitionSizeMB(0); got != h.SizeMB {
		t.Errorf("PartitionSizeMB(0) = %g, want full size", got)
	}
}

func TestGenerateBinaryShapeAndLabels(t *testing.T) {
	m := GenerateBinary(sim.NewRand(1), GenConfig{Samples: 100, Features: 8})
	if m.Rows != 100 || m.Cols != 8 || len(m.X) != 800 || len(m.Y) != 100 {
		t.Fatalf("bad shape: %d x %d, len X %d, len Y %d", m.Rows, m.Cols, len(m.X), len(m.Y))
	}
	for i, y := range m.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %d = %g, want ±1", i, y)
		}
	}
}

func TestGenerateBinaryDeterministic(t *testing.T) {
	a := GenerateBinary(sim.NewRand(7), GenConfig{Samples: 50, Features: 4, NoiseFlip: 0.1})
	b := GenerateBinary(sim.NewRand(7), GenConfig{Samples: 50, Features: 4, NoiseFlip: 0.1})
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("generation is not deterministic")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels are not deterministic")
		}
	}
}

func TestGenerateBinarySeparable(t *testing.T) {
	// With no label noise the data must be perfectly linearly separable by
	// the (hidden) generating hyperplane; verify both classes appear with
	// reasonable balance.
	m := GenerateBinary(sim.NewRand(3), GenConfig{Samples: 2000, Features: 10})
	pos := 0
	for _, y := range m.Y {
		if y > 0 {
			pos++
		}
	}
	frac := float64(pos) / float64(m.Rows)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("class balance %g, want ~0.5", frac)
	}
}

func TestNoiseFlipRate(t *testing.T) {
	clean := GenerateBinary(sim.NewRand(5), GenConfig{Samples: 20000, Features: 6})
	noisy := GenerateBinary(sim.NewRand(5), GenConfig{Samples: 20000, Features: 6, NoiseFlip: 0.25})
	flipped := 0
	for i := range clean.Y {
		if clean.Y[i] != noisy.Y[i] {
			flipped++
		}
	}
	rate := float64(flipped) / float64(len(clean.Y))
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("flip rate = %g, want ~0.25", rate)
	}
}

func TestGenerateRegressionNoise(t *testing.T) {
	m := GenerateRegression(sim.NewRand(9), GenConfig{Samples: 5000, Features: 16, NoiseStd: 2})
	if m.Rows != 5000 || m.Cols != 16 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	// Labels should have variance ≈ sum(w_i^2) + noise^2 > noise^2.
	var mean, sq float64
	for _, y := range m.Y {
		mean += y
	}
	mean /= float64(len(m.Y))
	for _, y := range m.Y {
		sq += (y - mean) * (y - mean)
	}
	variance := sq / float64(len(m.Y))
	if variance < 4 {
		t.Errorf("label variance %g too small; signal missing", variance)
	}
}

func TestRowView(t *testing.T) {
	m := GenerateBinary(sim.NewRand(2), GenConfig{Samples: 10, Features: 3})
	r := m.Row(4)
	if len(r) != 3 || cap(r) != 3 {
		t.Fatalf("Row length %d, capacity %d; want 3, 3", len(r), cap(r))
	}
	r[0] = 42
	if m.X[12] != 42 {
		t.Error("Row should be a view into X")
	}
}

func TestPartitionCoversAllRowsOnce(t *testing.T) {
	if err := quick.Check(func(rowsRaw, nRaw uint8) bool {
		rows := int(rowsRaw%200) + 1
		n := int(nRaw%16) + 1
		m := &Matrix{Rows: rows, Cols: 2, X: make([]float64, rows*2), Y: make([]float64, rows)}
		for i := range m.Y {
			m.Y[i] = float64(i)
		}
		parts := m.Partition(n)
		total := 0
		next := 0.0
		for _, p := range parts {
			total += p.Rows
			if p.Rows == 0 {
				return false
			}
			for _, y := range p.Y {
				if y != next {
					return false
				}
				next++
			}
		}
		return total == rows
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	m := &Matrix{Rows: 103, Cols: 1, X: make([]float64, 103), Y: make([]float64, 103)}
	parts := m.Partition(10)
	for _, p := range parts {
		if p.Rows < 10 || p.Rows > 11 {
			t.Errorf("shard rows = %d, want 10 or 11", p.Rows)
		}
	}
}

func TestTaskString(t *testing.T) {
	if BinaryClassification.String() != "binary" || Regression.String() != "regression" || MultiClass.String() != "multiclass" {
		t.Error("Task String values wrong")
	}
}
