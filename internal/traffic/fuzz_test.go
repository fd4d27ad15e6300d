package traffic

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// refParseTrace is the trace format spelled out with the standard library:
// split on '\n', drop one trailing '\r' per line, skip '#' lines and lines
// without a field, split fields on ',', ' ' and '\t', and parse each with
// strconv.ParseUint(…, 10, 32).
func refParseTrace(in string) ([][]uint32, error) {
	var rows [][]uint32
	for i, line := range strings.Split(in, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
		if len(fields) == 0 {
			continue
		}
		row := make([]uint32, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			row[j] = uint32(v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FuzzParseTrace: the chunked parser and refParseTrace agree on every input —
// whether it is a trace and, if so, on every row — read whole and one byte per
// Read, through one reused Parser. The seed corpus under testdata/fuzz is CRLF,
// CR-only, comments, ragged rows, a count one past uint32 and the empty input.
func FuzzParseTrace(f *testing.F) {
	p := NewParser()
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refParseTrace(string(data))
		for _, chunked := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(data)
			if chunked {
				r = iotest.OneByteReader(r)
			}
			tr, err := p.Parse(r)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("chunked=%v: the parser says %v, the reference %v", chunked, err, wantErr)
			}
			if err == nil {
				wantRows(t, tr, want)
			}
		}
	})
}
