// Package obs is the deterministic observability layer: tracing and metrics
// whose clock is the discrete-event simulation clock, not wall time.
//
// Every event carries an explicit timestamp in seconds supplied by the
// instrumented component (the DES clock or a job's own timeline). The package
// itself never reads a wall clock, so it passes the walltime analyzer and
// traces are byte-identical run to run: the same simulation produces the
// same events with the same timestamps in the same order, regardless of the
// host, the load, or the experiment engine's parallelism level.
//
// The layer is built for a zero-cost disabled path: a nil *Observer (and nil
// *Tracer, *Metrics, *Counter, ...) is a valid no-op sink, and hot paths
// guard event construction with Enabled() so that disabled tracing performs
// no allocation at all (the RunEpoch benchmark's 0 allocs/op guarantee from
// the numeric hot-path optimization is preserved).
//
// Two exporters serialize recorded data deterministically: a JSONL event log
// (one JSON object per line) and the Chrome trace-event format loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. A Collector merges many
// single-writer scopes (one per experiment cell) into one trace, ordered by
// scope name, which is what keeps cebench -trace-out byte-identical across
// -parallel levels.
package obs

// Arg is one key=value attachment on a trace event. Values are either
// numeric or strings; the helpers F, I, B and S construct them.
type Arg struct {
	Key   string
	Str   string
	Num   float64
	IsStr bool
}

// F attaches a float value.
func F(key string, v float64) Arg { return Arg{Key: key, Num: v} }

// I attaches an integer value.
func I(key string, v int) Arg { return Arg{Key: key, Num: float64(v)} }

// B attaches a boolean value (rendered as the strings "true"/"false").
func B(key string, v bool) Arg {
	if v {
		return Arg{Key: key, Str: "true", IsStr: true}
	}
	return Arg{Key: key, Str: "false", IsStr: true}
}

// S attaches a string value.
func S(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// value returns the arg's JSON-encodable value.
func (a Arg) value() any {
	if a.IsStr {
		return a.Str
	}
	return a.Num
}

// Observer bundles a Tracer and a Metrics registry: the handle every
// instrumented component holds. A nil *Observer is a valid disabled sink.
type Observer struct {
	tracer  *Tracer
	metrics *Metrics
}

// New returns an enabled observer; its events carry caller-supplied
// timestamps.
func New() *Observer {
	return &Observer{tracer: &Tracer{}, metrics: NewMetrics()}
}

// Enabled reports whether the observer records anything. Hot paths must
// guard argument construction behind it so the disabled path allocates
// nothing.
func (o *Observer) Enabled() bool { return o != nil }

// Trace returns the observer's tracer (nil when disabled).
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Stats returns the observer's metrics registry (nil when disabled).
func (o *Observer) Stats() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}
