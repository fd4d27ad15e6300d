package traffic

import (
	"fmt"
	"io"
	"math"
)

// Trace holds parsed per-minute invocation counts: one row per tenant
// (function), one column per minute, Azure-functions-trace style. Rows
// are stored concatenated in a single backing slice with an offset table
// — two allocations for the whole trace instead of one per row — and may
// be ragged (rows keep their own length).
type Trace struct {
	counts  []uint32
	offsets []int32 // row i is counts[offsets[i]:offsets[i+1]]
}

// Rows returns the number of rows in the trace.
func (t Trace) Rows() int {
	if len(t.offsets) == 0 {
		return 0
	}
	return len(t.offsets) - 1
}

// Row returns row i's per-minute counts. The slice aliases the trace's
// backing store; callers must not mutate it.
func (t Trace) Row(i int) []uint32 {
	return t.counts[t.offsets[i]:t.offsets[i+1]]
}

// Minutes returns the length of row i.
func (t Trace) Minutes(i int) int {
	return int(t.offsets[i+1] - t.offsets[i])
}

// RowTotal returns the total invocation count of row i.
func (t Trace) RowTotal(i int) uint64 {
	var sum uint64
	for _, c := range t.Row(i) {
		sum += uint64(c)
	}
	return sum
}

// Total returns the total invocation count across all rows.
func (t Trace) Total() uint64 {
	var sum uint64
	for _, c := range t.counts {
		sum += uint64(c)
	}
	return sum
}

// MakeTrace builds a Trace from explicit rows (test and synthesis
// convenience; the rows are copied).
func MakeTrace(rows [][]uint32) Trace {
	var t Trace
	t.offsets = make([]int32, 1, len(rows)+1)
	for _, r := range rows {
		t.counts = append(t.counts, r...)
		t.offsets = append(t.offsets, int32(len(t.counts)))
	}
	return t
}

// Parser parses per-minute-count trace files. The format is one row per
// line, counts separated by commas, spaces or tabs; blank lines and
// lines starting with '#' are skipped; CRLF is accepted.
//
// The parser reads the input in fixed-size chunks and converts digits to
// ints in place — no line splitting, no string materialization, no
// per-token garbage. Its internal buffers are reused across Parse calls,
// so steady-state reparsing allocates nothing; consequently the returned
// Trace aliases the parser's buffers and is valid only until the next
// Parse call (use the package-level ParseTrace for a one-shot parse that
// owns its memory).
type Parser struct {
	buf     []byte
	counts  []uint32
	offsets []int32

	// Scan state, kept on the Parser (not in closures) so the byte loop's
	// helpers are plain method calls and the whole parse stays off the heap.
	cur     uint64 // value of the number being scanned
	inNum   bool   // digits pending in cur
	rowOpen bool   // current line has produced at least one count
}

// NewParser returns a parser with a default 64 KiB read buffer.
func NewParser() *Parser {
	return &Parser{buf: make([]byte, 64<<10)}
}

// flushNum closes the number being scanned, if any, appending it to the
// current row.
func (p *Parser) flushNum() {
	if p.inNum {
		p.counts = append(p.counts, uint32(p.cur))
		p.cur, p.inNum, p.rowOpen = 0, false, true
	}
}

// endRow closes the current row, if it produced any counts.
func (p *Parser) endRow() {
	if p.rowOpen {
		p.offsets = append(p.offsets, int32(len(p.counts)))
		p.rowOpen = false
	}
}

// Parse reads an entire trace from r. See the Parser doc for the format
// and the aliasing caveat.
func (p *Parser) Parse(r io.Reader) (Trace, error) {
	p.counts = p.counts[:0]
	p.offsets = append(p.offsets[:0], 0)
	p.cur, p.inNum, p.rowOpen = 0, false, false
	var (
		inComment bool   // discarding until end of line
		atStart   = true // at the first byte of a line ('#' legal here)
		line      = 1
	)
	for {
		n, err := r.Read(p.buf)
		for _, b := range p.buf[:n] {
			if inComment {
				if b == '\n' {
					inComment, atStart = false, true
					line++
				}
				continue
			}
			switch {
			case b >= '0' && b <= '9':
				p.cur = p.cur*10 + uint64(b-'0')
				if p.cur > math.MaxUint32 {
					return Trace{}, fmt.Errorf("traffic: line %d: count overflows uint32", line)
				}
				p.inNum, atStart = true, false
			case b == ',' || b == ' ' || b == '\t':
				p.flushNum()
				atStart = false
			case b == '\n':
				p.flushNum()
				p.endRow()
				atStart = true
				line++
			case b == '\r':
				// handled by the following '\n'
			case b == '#' && atStart:
				inComment = true
			default:
				return Trace{}, fmt.Errorf("traffic: line %d: unexpected byte %q", line, b)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return Trace{}, fmt.Errorf("traffic: read: %w", err)
		}
	}
	p.flushNum()
	p.endRow()
	return Trace{counts: p.counts, offsets: p.offsets}, nil
}

// ParseTrace is the one-shot convenience: it parses r with a fresh
// parser, so the returned Trace owns its memory.
func ParseTrace(r io.Reader) (Trace, error) {
	return NewParser().Parse(r)
}
