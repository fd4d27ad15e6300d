package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
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

// wantRejected runs cescale on args and requires the rejection shape: one
// "cescale: ..." line on stderr, nothing on stdout and a non-zero exit.
func wantRejected(t *testing.T, args ...string) (stderr string) {
	t.Helper()
	stdout, stderr, exit := cescale(t, args...)
	if exit == 0 || stdout != "" {
		t.Errorf("%v: exit %d with %d bytes on stdout; want a non-zero exit and no output", args, exit, len(stdout))
	}
	if !strings.HasPrefix(stderr, "cescale: ") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("%v: stderr %q, want one cescale: line", args, stderr)
	}
	return stderr
}

// TestTuneRejectsBadStageFlags: a stage shape successive halving cannot run
// is rejected — not a plan with a negative bill or a silently substituted
// eta.
func TestTuneRejectsBadStageFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-stage-epochs", "-3"},
		{"-stage-epochs", "0"},
		{"-eta", "0"},
		{"-eta", "1"},
		{"-trials", "1"},
		{"-trials", "-8"},
	} {
		wantRejected(t, append([]string{"-mode", "tune", "-budget", "5"}, bad...)...)
	}
	if stdout, stderr, exit := cescale(t, "-mode", "tune", "-budget", "5", "-trials", "8", "-eta", "2", "-stage-epochs", "1"); exit != 0 || !strings.Contains(stdout, `"feasible"`) {
		t.Errorf("smallest sensible flags: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
}

// TestTuneSubnormalConstraint: a constraint so small that every plan's
// relative excess over it overflows still yields an infeasible plan, not a
// Go stack trace.
func TestTuneSubnormalConstraint(t *testing.T) {
	for _, flag := range []string{"-budget", "-qos"} {
		stdout, stderr, exit := cescale(t, "-mode", "tune", flag, "1e-320")
		if exit != 0 || !strings.Contains(stdout, `"feasible": false`) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s 1e-320: exit %d, stdout %q, stderr %q; want exit 0 and an infeasible plan", flag, exit, stdout, stderr)
		}
	}
}

// TestRejectsBadInputBeforeWork: input the selected mode would ignore,
// misread or only trip over after the run is rejected up front — not a full
// result followed by exit 1, an empty export reported as written, or a
// negative budget quietly read as "unset".
func TestRejectsBadInputBeforeWork(t *testing.T) {
	ignored := filepath.Join(t.TempDir(), "t.jsonl")
	for _, bad := range [][]string{
		{"-mode", "run", "-qos", "21600", "-trace", "/no/such/dir/x.csv"},
		{"-mode", "run", "-qos", "21600", "-trace-out", "/no/such/dir/x.jsonl"},
		{"-mode", "run", "-qos", "21600", "-metrics-out", "/no/such/dir/m.json"},
		{"-mode", "profile", "-trace-out", ignored},
		{"-mode", "train", "-qos", "21600", "-metrics-out", ignored},
		{"-mode", "tune", "-qos", "7200", "-trace", ignored},
		{"-mode", "profile", "-budget", "5"},
		{"-mode", "profile", "-qos", "0"},
		{"-mode", "run", "-qos", "21600", "-trials", "8"},
		{"-mode", "train", "-budget", "5", "-eta", "3"},
		{"-mode", "profile", "-stage-epochs", "1"},
		{"-mode", "run", "-budget", "-1", "-qos", "100"},
		{"-mode", "run", "-budget", "+Inf"},
		{"-mode", "run", "-qos", "21600", "stray-arg"},
		{"-mode", "bogus"},
	} {
		wantRejected(t, bad...)
	}
	if _, err := os.Stat(ignored); err == nil {
		t.Errorf("%s exists: an output flag its mode ignores still created a file", ignored)
	}
	if stderr := wantRejected(t, "-mode", "run", "-qos", "NaN"); !strings.Contains(stderr, "-qos NaN") {
		t.Errorf("-qos NaN: stderr %q does not name the bad flag", stderr)
	}
	// The substrate is not an option: -backend is an undefined flag.
	if stdout, stderr, exit := cescale(t, "-mode", "run", "-qos", "21600", "-backend", "sim"); exit != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -backend") {
		t.Errorf("-backend sim: exit %d, stdout %q, stderr %q; want the flag package's exit 2", exit, stdout, stderr)
	}
}

// TestTrainMatchesSession: -mode train prints the initial allocation and
// offline epoch estimate that an Algorithm 2 session (core.Session, which
// -mode run starts from) computes for the same workload, constraint and
// seed. run.golden pins run, tune and profile only.
func TestTrainMatchesSession(t *testing.T) {
	cases := []struct {
		model       string
		budget, qos float64
	}{
		{"LR-Higgs", 5, 0},
		{"LR-Higgs", 0, 21600},
		{"BERT-IMDb", 0, 86400},
		{"SVM-Higgs", 0, 3000},
		{"MobileNet-Cifar10", 40, 0},
	}
	for _, c := range cases {
		w, err := workload.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		fw := core.New(w)
		for _, seed := range []uint64{2023, 7} {
			args := []string{"-mode", "train", "-model", c.model, "-seed", strconv.FormatUint(seed, 10),
				"-budget", strconv.FormatFloat(c.budget, 'g', -1, 64), "-qos", strconv.FormatFloat(c.qos, 'g', -1, 64)}
			stdout, stderr, exit := cescale(t, args...)
			if exit != 0 {
				t.Fatalf("%v: exit %d, stderr %q", args, exit, stderr)
			}
			var got trainJSON
			if err := json.Unmarshal([]byte(stdout), &got); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			_, alloc, est, err := fw.Session(core.Options{Budget: c.budget, QoS: c.qos, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got.InitialAlloc != toAllocJSON(alloc) || got.OfflineEpochs != est {
				t.Errorf("%v: train prints %+v est %d; session starts at %+v est %d",
					args, got.InitialAlloc, got.OfflineEpochs, toAllocJSON(alloc), est)
			}
		}
	}
	// Where nothing fits, train refuses; a session instead falls back to the
	// cheapest candidate (5 x 512 MB on S3 for this budget), which is what
	// -mode run starts from.
	for _, seed := range []string{"2023", "7"} {
		stderr := wantRejected(t, "-mode", "train", "-model", "MobileNet-Cifar10", "-budget", "4", "-seed", seed)
		if !strings.Contains(stderr, "no feasible allocation") {
			t.Errorf("seed %s: stderr %q, want no feasible allocation", seed, stderr)
		}
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
