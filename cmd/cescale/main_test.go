package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// goldenCases are the invocations testdata/run.golden pins: run mode in QoS
// and budget mode on three workloads at two seeds, with every output file
// run mode can write, and (seed-independent) one tuning plan with its
// decision trace and one profile.
var goldenCases = []struct {
	name  string
	args  []string
	files []string // output flags to add, each writing <dir>/<flag><ext>
	seeds []string
}{
	{"run LR-Higgs qos=21600", []string{"-mode", "run", "-model", "LR-Higgs", "-qos", "21600"}, []string{"-trace", "-trace-out", "-metrics-out"}, []string{"2023", "7"}},
	{"run MobileNet-Cifar10 budget=4", []string{"-mode", "run", "-model", "MobileNet-Cifar10", "-budget", "4"}, []string{"-trace", "-trace-out", "-metrics-out"}, []string{"2023", "7"}},
	{"run BERT-IMDb qos=86400", []string{"-mode", "run", "-model", "BERT-IMDb", "-qos", "86400"}, []string{"-trace", "-trace-out", "-metrics-out"}, []string{"2023", "7"}},
	{"tune MobileNet-Cifar10 trials=512 qos=7200", []string{"-mode", "tune", "-model", "MobileNet-Cifar10", "-trials", "512", "-qos", "7200"}, []string{"-trace-out", "-metrics-out"}, []string{"2023"}},
	{"profile BERT-IMDb", []string{"-mode", "profile", "-model", "BERT-IMDb"}, nil, []string{"2023"}},
}

var goldenExt = map[string]string{"-trace": ".csv", "-trace-out": ".jsonl", "-metrics-out": ".json"}

// TestRunGolden pins every byte cescale prints on stdout and writes to its
// -trace, -trace-out and -metrics-out files to testdata/run.golden. That
// file was generated once, by the binary that still had a -backend flag (set
// to sim, its default), and is never regenerated: any change behind the
// command must reproduce every byte.
func TestRunGolden(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/run.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, sum, ok := strings.Cut(sc.Text(), "\t"); ok {
			want[name] = sum
		}
	}
	checked := 0
	check := func(name string, got []byte) {
		t.Helper()
		sum := sha256.Sum256(got)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: sha256 %s, pinned %q", name, h, want[name])
		}
		checked++
	}
	for _, gc := range goldenCases {
		for _, seed := range gc.seeds {
			dir := t.TempDir()
			args := append([]string{"-seed", seed}, gc.args...)
			for _, flag := range gc.files {
				args = append(args, flag, filepath.Join(dir, flag+goldenExt[flag]))
			}
			stdout, stderr, exit := cescale(t, args...)
			if exit != 0 {
				t.Fatalf("%v: exit %d, stderr %q", args, exit, stderr)
			}
			name := gc.name + " seed=" + seed
			check(name+" stdout", []byte(stdout))
			for _, flag := range gc.files {
				b, err := os.ReadFile(filepath.Join(dir, flag+goldenExt[flag]))
				if err != nil {
					t.Fatal(err)
				}
				check(name+" "+flag, b)
			}
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d digests, testdata/run.golden pins %d", checked, len(want))
	}
}
