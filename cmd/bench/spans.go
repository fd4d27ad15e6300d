package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work, recorded around
// the calls into the program under test: bench → setup → {build, warmup};
// repeat/<i> → exec → artifact/<id>; profile/<workload>; probe/<metric>.
// A span's self time is its duration minus the part its children cover.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // host seconds since the benchmark began
	End      float64 `json:"end"`
	Workload string  `json:"workload,omitempty"`
	Repeat   int     `json:"repeat,omitempty"`
}

// spanLog keeps spans in memory; write flushes them when the run ends. The
// driver is single-threaded, so there is no lock.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() float64 { return time.Since(l.t0).Seconds() }

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(parent int, name, workload string, repeat int) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: l.now(), Workload: workload, Repeat: repeat,
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) float64 {
	s := &l.spans[id-1]
	s.End = l.now()
	return s.End - s.Start
}

// lay records an already-measured child interval (the per-artifact stderr
// lines, laid end to end inside their exec span).
func (l *spanLog) lay(parent int, name string, start, dur float64) {
	p := l.spans[parent-1]
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: start, End: start + dur, Workload: p.Workload, Repeat: p.Repeat,
	})
}

func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
