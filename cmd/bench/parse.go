package main

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file reads the text surfaces cebench and the Go toolchain already
// print: cebench's stdout tables and `note:` counters, its stderr timing
// lines, `go tool pprof -top`, and GODEBUG=gctrace=1. They are the pinned
// surface listed in benchmark/README.md.

// table is one `== id: title ==` block of cebench's text output.
type table struct {
	id      string
	headers []string
	rows    [][]string
	note    string
}

var (
	titleLine = regexp.MustCompile(`^== (\S+): .* ==$`)
	cellGap   = regexp.MustCompile(`\s{2,}`)
)

// splitCells splits one padded table line. Cells may contain single spaces
// ("est JCT", "(n=10, mem=1769MB, S3)"); columns are at least two apart.
func splitCells(line string) []string {
	return cellGap.Split(strings.TrimRight(line, " "), -1)
}

// parseTables splits cebench's text stdout into its tables. A paper table
// may print a row with fewer cells than the header ("infeasible"); readers
// of a column go through cell, which reports such a row as having none.
func parseTables(stdout []byte) ([]table, error) {
	var tables []table
	lines := strings.Split(string(stdout), "\n")
	for i := 0; i < len(lines); i++ {
		m := titleLine.FindStringSubmatch(lines[i])
		if m == nil {
			if lines[i] != "" {
				return nil, fmt.Errorf("line %d outside any table: %q", i+1, lines[i])
			}
			continue
		}
		t := table{id: m[1]}
		if i+2 >= len(lines) || !strings.HasPrefix(lines[i+2], "-") {
			return nil, fmt.Errorf("table %s: no header and rule after the title", t.id)
		}
		t.headers = splitCells(lines[i+1])
		for i += 3; i < len(lines) && lines[i] != ""; i++ {
			if note, ok := strings.CutPrefix(lines[i], "note: "); ok {
				t.note = note
				continue
			}
			t.rows = append(t.rows, splitCells(lines[i]))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// cell returns row's cell under header name.
func (t *table) cell(row []string, name string) (string, bool) {
	c := slices.Index(t.headers, name)
	if c < 0 || len(row) != len(t.headers) {
		return "", false
	}
	return row[c], true
}

// total returns the TOTAL row, or nil.
func (t *table) total() []string {
	for _, r := range t.rows {
		if r[0] == "TOTAL" {
			return r
		}
	}
	return nil
}

// totalCell returns the TOTAL row's numeric cell under header name.
func (t *table) totalCell(name string) (float64, bool) {
	s, ok := t.cell(t.total(), name)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

var (
	noteKV       = regexp.MustCompile(`(\w+)=(\d+(?:\.\d+)?)`)
	noteArrivals = regexp.MustCompile(`(\d+) tenants x (\d+) arrivals`)
)

// noteCounters returns every numeric `key=value` of a note line, keyed by
// the word before the `=` ("fault events compiled=208" is "compiled").
func noteCounters(note string) map[string]float64 {
	out := map[string]float64{}
	for _, m := range noteKV.FindAllStringSubmatch(note, -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		out[m[1]] = v
	}
	return out
}

// artifactTime is one `cebench: <id> in <dur>` stderr line.
type artifactTime struct {
	id  string
	dur time.Duration
}

var (
	timingLine = regexp.MustCompile(`^cebench: (\S+) in (\S+)$`)
	errorLine  = regexp.MustCompile(`^cebench: (\S+): (.+)$`)
)

// parseStderr returns the per-artifact timing lines in order and every
// `cebench: <id>: <err>` line.
func parseStderr(stderr []byte) (times []artifactTime, errs []string) {
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		if m := timingLine.FindStringSubmatch(line); m != nil {
			if d, err := time.ParseDuration(m[2]); err == nil {
				times = append(times, artifactTime{m[1], d})
				continue
			}
		}
		if errorLine.MatchString(line) {
			errs = append(errs, line)
		}
	}
	return times, errs
}

var gcLine = regexp.MustCompile(`^gc \d+ @\S+ \d+%: .* (\d+)->(\d+)->(\d+) MB,`)

// parseGCTrace counts GODEBUG=gctrace=1 cycles and returns the largest heap
// size seen at the end of a mark phase.
func parseGCTrace(stderr []byte) (cycles int, heapPeakMB float64) {
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		cycles++
		if v, _ := strconv.ParseFloat(m[2], 64); v > heapPeakMB {
			heapPeakMB = v
		}
	}
	return cycles, heapPeakMB
}

// repoLayers are the repro/internal packages the profile ladder names;
// cpuLayers adds the buckets for everything else. Every sample lands in
// exactly one bucket, so the rows sum to the profile total.
var (
	repoLayers = []string{
		"sim", "traffic", "faas", "storage", "fault", "experiments", "obs", "fit",
		"predictor", "scheduler", "cost", "planner", "sha", "trainer", "ml", "dataset",
	}
	cpuLayers = append(repoLayers[:len(repoLayers):len(repoLayers)], "runtime", "std-math", "std-fmt", "other")
)

var internalPkg = regexp.MustCompile(`repro/internal/([a-z0-9_]+)`)

// layerOf maps a pprof function name to its layer.
func layerOf(fn string) string {
	// Type arguments name other packages: "slices.SortFunc[...cost.Point]".
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	if m := internalPkg.FindStringSubmatch(fn); m != nil {
		if slices.Contains(repoLayers, m[1]) {
			return m[1]
		}
		return "other"
	}
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	} else {
		return "runtime" // assembly helpers: gcWriteBarrier, memeqbody, ...
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "internal/cpu":
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "std-math"
	case pkg == "fmt" || pkg == "strconv": // fmt formats numbers through strconv
		return "std-fmt"
	}
	return "other"
}

// pprofSeconds parses a pprof time cell: "0", "10ms", "1.23s", "2.5mins".
func pprofSeconds(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	s = strings.NewReplacer("mins", "m", "hrs", "h").Replace(s)
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}

var pprofTotal = regexp.MustCompile(`^Showing nodes accounting for \S+, \S+ of (\S+) total`)

// parsePprofTop sums the flat column of `go tool pprof -top` per layer. An
// inlined callee is its own row ("name (inline)") and is attributed to its
// own package.
func parsePprofTop(out []byte) (byLayer map[string]float64, total float64, err error) {
	byLayer = map[string]float64{}
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20) // generic instantiations make long names
	for sc.Scan() {
		line := sc.Text()
		if m := pprofTotal.FindStringSubmatch(line); m != nil {
			if total, err = pprofSeconds(m[1]); err != nil {
				return nil, 0, fmt.Errorf("pprof total %q: %v", m[1], err)
			}
			continue
		}
		f := strings.Fields(line)
		if !inRows {
			inRows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := pprofSeconds(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %v", line, err)
		}
		byLayer[layerOf(f[5])] += flat
	}
	if !inRows {
		return nil, 0, fmt.Errorf("no flat/flat%% header in pprof output")
	}
	return byLayer, total, nil
}
