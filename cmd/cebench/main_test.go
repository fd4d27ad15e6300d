package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the cebench command: with
// CEBENCH_TEST_AS_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CEBENCH_TEST_AS_MAIN") != "" {
		main() // exits with run()'s code
	}
	os.Exit(m.Run())
}

func cebench(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CEBENCH_TEST_AS_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestRejectsBadInput: input cebench cannot honour is one "cebench: ..." line
// on stderr, nothing on stdout and a non-zero exit before any artifact runs —
// not a text table under -format xml, a silently dropped id after "all", a
// serial run under -parallel -3, an unwritable -trace-out discovered after
// the last artifact, or a stack trace from inside a traffic cursor.
func TestRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, bad := range []struct {
		args []string
		exit int
	}{
		{[]string{"-format", "xml", "tab1"}, 2},
		{[]string{"all", "bogus-id"}, 2},
		{[]string{"-parallel", "-3", "tab1"}, 2},
		{[]string{"-trace-out", filepath.Join(missing, "x.jsonl"), "tab1"}, 1},
		{[]string{"-metrics-out", filepath.Join(missing, "m.json"), "tab1"}, 1},
		// A rate Config.Validate accepts, but one tenant's LogNormal draw takes to +Inf.
		{[]string{"-traffic-rate", "1.7e308", "-traffic-horizon", "1e-300", "macro-trace"}, 1},
	} {
		stdout, stderr, exit := cebench(t, bad.args...)
		if exit != bad.exit || stdout != "" {
			t.Errorf("%v: exit %d with %d bytes on stdout; want exit %d and no output", bad.args, exit, len(stdout), bad.exit)
		}
		if !strings.HasPrefix(stderr, "cebench: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one cebench: line (and no artifact timing line)", bad.args, stderr)
		}
	}
}

// TestFormatJSON: a good -format still works, -parallel 0 means the default,
// and the stderr timing line cmd/bench parses keeps its shape.
func TestFormatJSON(t *testing.T) {
	stdout, stderr, exit := cebench(t, "-format", "json", "-parallel", "0", "tab1", "tab4")
	if exit != 0 {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	var tables []struct{ ID string }
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout)
	}
	if len(tables) != 2 || tables[0].ID != "tab1" || tables[1].ID != "tab4" {
		t.Errorf("tables = %+v, want tab1 then tab4", tables)
	}
	if !strings.Contains(stderr, "cebench: tab1 in ") {
		t.Errorf("stderr %q lacks the per-artifact timing line", stderr)
	}
}

// TestTraceExportGate is the observability determinism gate at the CLI: one
// small figure run serially, on eight workers, and with tracing off. The
// exported trace and metrics bytes must not depend on -parallel (sim-clock
// timestamps and sorted-scope export make them independent of goroutine
// scheduling), and stdout must not depend on -parallel or on whether a
// collector is attached.
func TestTraceExportGate(t *testing.T) {
	const fig = "fig21b"
	dir := t.TempDir()
	type export struct{ stdout, trace, metrics string }
	run := func(parallel string, collect bool) export {
		args := []string{"-seed", "2023", "-parallel", parallel}
		tracePath := filepath.Join(dir, "trace-p"+parallel+".json")
		metricsPath := filepath.Join(dir, "metrics-p"+parallel+".json")
		if collect {
			args = append(args, "-trace-out", tracePath, "-metrics-out", metricsPath)
		}
		stdout, stderr, exit := cebench(t, append(args, fig)...)
		if exit != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr %q", parallel, exit, stderr)
		}
		e := export{stdout: stdout}
		if collect {
			e.trace, e.metrics = readFile(t, tracePath), readFile(t, metricsPath)
		}
		return e
	}
	serial, wide, off := run("1", true), run("8", true), run("8", false)
	if len(serial.trace) < 1000 || len(serial.metrics) < 100 {
		t.Fatalf("export implausibly small: trace %d bytes, metrics %d bytes", len(serial.trace), len(serial.metrics))
	}
	if serial.trace != wide.trace {
		t.Errorf("trace bytes differ between -parallel 1 and 8 (%d vs %d bytes)", len(serial.trace), len(wide.trace))
	}
	if serial.metrics != wide.metrics {
		t.Error("metrics bytes differ between -parallel 1 and 8")
	}
	if serial.stdout != wide.stdout {
		t.Error("stdout differs between -parallel 1 and 8")
	}
	if serial.stdout != off.stdout {
		t.Error("stdout differs with tracing on vs off")
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
