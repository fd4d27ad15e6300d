// Package experiments regenerates every table and figure of the paper's
// evaluation section over the simulated substrate. Each experiment is a
// named function producing a Table whose rows mirror the series the paper
// reports; cmd/cebench prints them.
//
// Scaling note: the paper tunes 16384 trials over 14 stages on AWS. The
// trial populations here are scaled (256-512 trials) so that an experiment
// matrix of 4 systems x 5 models executes in seconds; the stage structure,
// reduction factor, epochs per stage and all mechanisms are unchanged, and
// every scaled quantity is noted in the table's Notes field.
package experiments

import (
	"fmt"
	"html/template"
	"sort"
	"strings"
)

// Table is one regenerated artifact.
type Table struct {
	ID      string // "fig9", "tab2", ...
	Title   string
	Headers []string
	Rows    [][]string
	Notes   string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first); the title
// and notes travel as "#"-prefixed comment lines.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "# note: %s\n", t.Notes)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			fmt.Fprintf(b, "%q", c)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// HTML renders the table as a standalone HTML fragment (cebench stitches
// fragments into a self-contained report).
func (t *Table) HTML() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<section id=%q>\n<h2>%s: %s</h2>\n<table>\n<thead><tr>",
		template.HTMLEscapeString(t.ID), template.HTMLEscapeString(t.ID), template.HTMLEscapeString(t.Title))
	for _, h := range t.Headers {
		fmt.Fprintf(&b, "<th>%s</th>", template.HTMLEscapeString(h))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, row := range t.Rows {
		b.WriteString("<tr>")
		for _, c := range row {
			fmt.Fprintf(&b, "<td>%s</td>", template.HTMLEscapeString(c))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n")
	if t.Notes != "" {
		fmt.Fprintf(&b, "<p class=\"note\">%s</p>\n", template.HTMLEscapeString(t.Notes))
	}
	b.WriteString("</section>\n")
	return b.String()
}

// HTMLReport wraps rendered tables into one self-contained document.
func HTMLReport(tables []*Table) string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>CE-scaling reproduction report</title>
<style>
body{font-family:sans-serif;max-width:72rem;margin:2rem auto;padding:0 1rem}
table{border-collapse:collapse;margin:.5rem 0}
th,td{border:1px solid #ccc;padding:.25rem .6rem;text-align:left;font-size:.9rem}
th{background:#f0f0f0}
.note{color:#555;font-size:.85rem}
h2{margin-top:2rem}
</style></head><body>
<h1>CE-scaling reproduction report</h1>
<p>Regenerated tables and figures (see EXPERIMENTS.md for paper-vs-measured commentary).</p>
`)
	for _, t := range tables {
		b.WriteString(t.HTML())
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// registry maps experiment ids to runners, populated by init functions in
// the per-area files and read-only afterwards. A runner must be
// deterministic for a given seed and Config.
var registry = map[string]func(seed uint64, cfg Config) (*Table, error){}

func register(id string, r func(seed uint64, cfg Config) (*Table, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns every registered experiment id in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment id with the given seed at the registered
// defaults (the zero Config).
func Run(id string, seed uint64) (*Table, error) {
	o := RunAll([]string{id}, seed, Config{})[0]
	return o.Table, o.Err
}

// --- shared formatting helpers ---

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func seconds(v float64) string {
	switch {
	case v >= 3600:
		return fmt.Sprintf("%.2fh", v/3600)
	case v >= 60:
		return fmt.Sprintf("%.1fm", v/60)
	default:
		return fmt.Sprintf("%.1fs", v)
	}
}

func dollars(v float64) string {
	if v < 0.01 {
		return fmt.Sprintf("$%.4f", v)
	}
	return fmt.Sprintf("$%.2f", v)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// reduction returns "x vs y" improvement as a fraction (positive = better).
func reduction(base, ours float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - ours) / base
}
