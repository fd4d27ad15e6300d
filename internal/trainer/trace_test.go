package trainer

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestWriteTraceCSV(t *testing.T) {
	w := workload.MobileNet()
	r := NewRunner(3)
	res, err := r.RunEpochs(w, w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 3),
		cost.Allocation{N: 10, MemMB: 1769, Storage: storage.S3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 { // header + 4 epochs
		t.Fatalf("rows = %d, want 5", len(records))
	}
	if records[0][0] != "epoch" || records[0][4] != "storage" {
		t.Errorf("header = %v", records[0])
	}
	for i, rec := range records[1:] {
		if e, err := strconv.Atoi(rec[0]); err != nil || e != i+1 {
			t.Errorf("row %d epoch cell = %q", i, rec[0])
		}
		if rec[4] != "S3" {
			t.Errorf("row %d storage = %q", i, rec[4])
		}
		if loss, err := strconv.ParseFloat(rec[1], 64); err != nil || loss <= 0 {
			t.Errorf("row %d loss = %q", i, rec[1])
		}
	}
}

func TestWriteTraceCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Errorf("empty trace should still write the header, got %d rows", len(records))
	}
}
