package traffic

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func parseString(t *testing.T, s string) Trace {
	t.Helper()
	tr, err := ParseTrace(strings.NewReader(s))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	return tr
}

func wantRows(t *testing.T, tr Trace, rows [][]uint32) {
	t.Helper()
	if tr.Rows() != len(rows) {
		t.Fatalf("parsed %d rows, want %d", tr.Rows(), len(rows))
	}
	for i, want := range rows {
		got := tr.Row(i)
		if len(got) != len(want) {
			t.Fatalf("row %d has %d counts, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("row %d col %d = %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestParseTraceBasic(t *testing.T) {
	tr := parseString(t, "1,2,3\n0,0,7\n")
	wantRows(t, tr, [][]uint32{{1, 2, 3}, {0, 0, 7}})
	if tr.Total() != 13 || tr.RowTotal(1) != 7 || tr.Minutes(0) != 3 {
		t.Errorf("totals: Total=%d RowTotal(1)=%d Minutes(0)=%d", tr.Total(), tr.RowTotal(1), tr.Minutes(0))
	}
}

func TestParseTraceSeparatorsAndJunk(t *testing.T) {
	// Comments, blank lines, CRLF, mixed separators, no trailing newline,
	// ragged rows.
	in := "# azure-style per-minute counts\n\n1 2\t3\r\n\r\n4,5\n6"
	tr := parseString(t, in)
	wantRows(t, tr, [][]uint32{{1, 2, 3}, {4, 5}, {6}})
}

func TestParseTraceMaxUint32(t *testing.T) {
	tr := parseString(t, "4294967295\n")
	wantRows(t, tr, [][]uint32{{4294967295}})
}

func TestParseTraceErrors(t *testing.T) {
	for _, in := range []string{
		"1,2,x\n",         // junk byte
		"4294967296\n",    // uint32 overflow
		"1 2\n3 # nope\n", // comment not at line start
	} {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("ParseTrace(%q) succeeded, want error", in)
		}
	}
}

// TestParseTraceCarriageReturns: a '\r' ends a line only directly before its
// '\n' or the end of the input — also when a read chunk ends between the two
// (every chunk is one byte through iotest.OneByteReader). Anywhere else it is
// an error naming its line, not a byte to skip: a CR-only file used to parse
// as one row with its numbers glued together across the line breaks.
func TestParseTraceCarriageReturns(t *testing.T) {
	for _, c := range []struct {
		in   string
		rows [][]uint32 // nil: rejected
		line string     // the line the error names
	}{
		{in: "1,2\r\n3\r\n", rows: [][]uint32{{1, 2}, {3}}},
		{in: "# c\r\n\r\n4 5\r\n6\r", rows: [][]uint32{{4, 5}, {6}}},
		{in: "# a comment may hold \r anywhere\n7\n", rows: [][]uint32{{7}}},
		{in: "1,2\r3,4\r", line: "line 1"},
		{in: "1\r2\n", line: "line 1"},
		{in: "1\n2\r\r\n", line: "line 2"},
		{in: "1\n\r3\n", line: "line 2"},
	} {
		for _, chunked := range []bool{false, true} {
			var r io.Reader = strings.NewReader(c.in)
			if chunked {
				r = iotest.OneByteReader(r)
			}
			tr, err := ParseTrace(r)
			switch {
			case c.rows == nil && err == nil:
				t.Errorf("ParseTrace(%q), chunked=%v: %d rows, want an error", c.in, chunked, tr.Rows())
			case c.rows == nil && !strings.Contains(err.Error(), c.line+":"):
				t.Errorf("ParseTrace(%q), chunked=%v: %v, want it to name %s", c.in, chunked, err, c.line)
			case c.rows != nil && err != nil:
				t.Errorf("ParseTrace(%q), chunked=%v: %v", c.in, chunked, err)
			case c.rows != nil:
				wantRows(t, tr, c.rows)
			}
		}
	}
}

func TestParseTraceEmpty(t *testing.T) {
	tr := parseString(t, "# only a comment\n\n")
	if tr.Rows() != 0 {
		t.Fatalf("empty input parsed to %d rows", tr.Rows())
	}
}

// TestParserReuseZeroAlloc: a reused parser reproduces the same trace and,
// in steady state, allocates nothing — the zero-alloc contract the
// benchmark measures.
func TestParserReuseZeroAlloc(t *testing.T) {
	in := []byte("8,0,3\n1,1,1,1\n")
	p := NewParser()
	first, err := p.Parse(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	total, rows := first.Total(), first.Rows()
	r := bytes.NewReader(in)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(in)
		tr, err := p.Parse(r)
		if err != nil || tr.Total() != total || tr.Rows() != rows {
			t.Fatalf("reused parse diverged: %v %d/%d", err, tr.Total(), tr.Rows())
		}
	}); n != 0 {
		t.Errorf("reused Parse allocates %.1f times per call, want 0", n)
	}
}

// TestMakeTraceCopies: MakeTrace must not alias the caller's rows.
func TestMakeTraceCopies(t *testing.T) {
	row := []uint32{1, 2}
	tr := MakeTrace([][]uint32{row})
	row[0] = 99
	if tr.Row(0)[0] != 1 {
		t.Error("MakeTrace aliased the caller's row")
	}
}

// synthTraceBytes builds a deterministic ~rows×minutes CSV trace without
// any randomness (benchmarks must not depend on rand ordering).
func synthTraceBytes(rows, minutes int) []byte {
	var b bytes.Buffer
	for r := 0; r < rows; r++ {
		for m := 0; m < minutes; m++ {
			if m > 0 {
				b.WriteByte(',')
			}
			// Small varied counts with plenty of zeros, like real traces.
			v := (r*7 + m*13) % 23
			if v > 9 {
				v = 0
			}
			b.WriteByte(byte('0' + v))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// BenchmarkParseTrace measures the zero-alloc parser on a 128-row,
// 1440-minute (one simulated day) trace.
func BenchmarkParseTrace(b *testing.B) {
	in := synthTraceBytes(128, 1440)
	p := NewParser()
	r := bytes.NewReader(in)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(in)
		if _, err := p.Parse(r); err != nil {
			b.Fatal(err)
		}
	}
}
