package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the cescale command: with
// CESCALE_TEST_AS_MAIN set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CESCALE_TEST_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func cescale(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CESCALE_TEST_AS_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestTuneRejectsBadStageFlags: a stage shape successive halving cannot run
// is one "cescale: ..." line on stderr, nothing on stdout and a non-zero
// exit — not a plan with a negative bill or a silently substituted eta.
func TestTuneRejectsBadStageFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-stage-epochs", "-3"},
		{"-stage-epochs", "0"},
		{"-eta", "0"},
		{"-eta", "1"},
		{"-trials", "1"},
		{"-trials", "-8"},
	} {
		stdout, stderr, exit := cescale(t, append([]string{"-mode", "tune", "-budget", "5"}, bad...)...)
		if exit == 0 || stdout != "" {
			t.Errorf("%v: exit %d with %d bytes on stdout; want a non-zero exit and no output", bad, exit, len(stdout))
		}
		if !strings.HasPrefix(stderr, "cescale: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one cescale: line", bad, stderr)
		}
	}
	if stdout, stderr, exit := cescale(t, "-mode", "tune", "-budget", "5", "-trials", "8", "-eta", "2", "-stage-epochs", "1"); exit != 0 || !strings.Contains(stdout, `"feasible"`) {
		t.Errorf("smallest sensible flags: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
}
