package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
)

// Exporters. Both formats are deterministic byte-for-byte: scopes are
// emitted in sorted-name order, events within a scope in their (single
// writer, deterministic) recording order, args via encoding/json whose map
// keys are always sorted. Timestamps are converted seconds → microseconds
// for the Chrome trace-event format; Perfetto and chrome://tracing load the
// resulting file directly.

// jsonlEvent is one line of the JSONL event log.
type jsonlEvent struct {
	Scope   string         `json:"scope,omitempty"`
	T       float64        `json:"t"`
	Dur     float64        `json:"dur,omitempty"`
	Track   string         `json:"track"`
	Cat     string         `json:"cat"`
	Name    string         `json:"name"`
	Instant bool           `json:"instant,omitempty"`
	Args    map[string]any `json:"args,omitempty"`
}

func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Key] = a.value()
	}
	return m
}

// WriteJSONL writes every scope's events as one JSON object per line.
func WriteJSONL(w io.Writer, scopes []NamedScope) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sc := range scopes {
		for _, ev := range sc.Obs.Trace().Events() {
			line := jsonlEvent{
				Scope:   sc.Name,
				T:       ev.Time,
				Dur:     ev.Dur,
				Track:   ev.Track,
				Cat:     ev.Cat,
				Name:    ev.Name,
				Instant: ev.Instant,
				Args:    argsMap(ev.Args),
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// chromeSpan / chromeInstant / chromeMeta are trace-event records. Field
// order is the struct declaration order, which keeps the output stable.
type chromeSpan struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeInstant struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChromeTrace writes the scopes as a Chrome trace-event JSON document
// loadable in Perfetto. Each scope becomes a process (pid = sorted-scope
// index), each track within a scope a thread (tid = first-appearance
// order); metadata events name both so the UI shows scope and track labels.
func WriteChromeTrace(w io.Writer, scopes []NamedScope) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	for pid, sc := range scopes {
		pname := sc.Name
		if pname == "" {
			pname = "trace"
		}
		if err := emit(chromeMeta{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": pname}}); err != nil {
			return err
		}
		events := sc.Obs.Trace().Events()
		tids := make(map[string]int)
		for _, ev := range events {
			tid, ok := tids[ev.Track]
			if !ok {
				tid = len(tids)
				tids[ev.Track] = tid
				if err := emit(chromeMeta{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": ev.Track}}); err != nil {
					return err
				}
			}
			ts := ev.Time * 1e6 // seconds → microseconds
			if ev.Instant {
				if err := emit(chromeInstant{Name: ev.Name, Cat: ev.Cat, Ph: "i", Ts: ts,
					Pid: pid, Tid: tid, S: "t", Args: argsMap(ev.Args)}); err != nil {
					return err
				}
			} else {
				if err := emit(chromeSpan{Name: ev.Name, Cat: ev.Cat, Ph: "X", Ts: ts,
					Dur: ev.Dur * 1e6, Pid: pid, Tid: tid, Args: argsMap(ev.Args)}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// scopeMetrics is one scope's metrics snapshot in the metrics JSON document.
type scopeMetrics struct {
	Scope   string   `json:"scope"`
	Metrics Snapshot `json:"metrics"`
}

// WriteMetricsJSON writes every scope's metrics snapshot as an indented
// JSON document, scopes in sorted-name order, keys within each snapshot
// sorted by the registry.
func WriteMetricsJSON(w io.Writer, scopes []NamedScope) error {
	doc := make([]scopeMetrics, 0, len(scopes))
	for _, sc := range scopes {
		doc = append(doc, scopeMetrics{Scope: sc.Name, Metrics: sc.Obs.Stats().Snapshot()})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// WriteTrace writes scopes to w in the format implied by path's extension:
// ".jsonl" selects the JSONL event log, anything else the Chrome
// trace-event JSON.
func WriteTrace(w io.Writer, path string, scopes []NamedScope) error {
	if strings.HasSuffix(path, ".jsonl") {
		return WriteJSONL(w, scopes)
	}
	return WriteChromeTrace(w, scopes)
}
