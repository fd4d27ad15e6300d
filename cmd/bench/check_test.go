package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fixtureWorkloads maps each captured smoke-size stdout to its workload.
var fixtureWorkloads = map[string]string{
	"trace.stdout":     "trace-s1",
	"day-chaos.stdout": "day-chaos",
	"fleet.stdout":     "fleet",
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestVerifyAcceptsCapturedOutput(t *testing.T) {
	for file, name := range fixtureWorkloads {
		_, fails := verify(mustWorkload(t, name), smokeScale, &execution{stdout: fixture(t, file)})
		if len(fails) != 0 {
			t.Errorf("%s: clean output rejected: %q", file, fails)
		}
	}
}

// TestVerifyHasTeeth corrupts captured output the ways a broken simulator
// would and requires each corruption to be counted in fail_frac and to fail
// the run.
func TestVerifyHasTeeth(t *testing.T) {
	replace := func(old, new string) func([]byte) []byte {
		return func(b []byte) []byte {
			if !bytes.Contains(b, []byte(old)) {
				t.Fatalf("fixture has no %q", old)
			}
			return bytes.Replace(b, []byte(old), []byte(new), 1)
		}
	}
	for _, tc := range []struct {
		name, file string
		corrupt    func([]byte) []byte
		exitErr    error
		stderr     string
		wantInFail string
	}{
		{name: "one flipped cell", file: "trace.stdout",
			corrupt: replace("mem-1  5        1024   900 ", "mem-1  5        1024   901 "), wantInFail: "TOTAL arrivals"},
		{name: "TOTAL row off by one", file: "day-chaos.stdout",
			corrupt: replace("TOTAL  8        -      2400 ", "TOTAL  8        -      2401 "), wantInFail: "TOTAL completed"},
		{name: "ledger broken, sums intact", file: "trace.stdout",
			corrupt: func(b []byte) []byte {
				b = replace("881        3  ", "881        4  ")(b)
				return replace("3126       14  ", "3126       15  ")(b)
			}, wantInFail: "arrivals 3140 != completed 3126 + dropped 15"},
		{name: "missing artifact", file: "day-chaos.stdout",
			corrupt: func(b []byte) []byte { return b[:bytes.Index(b, []byte("== macro-chaos"))] }, wantInFail: "missing artifact macro-chaos"},
		{name: "wrong population", file: "fleet.stdout",
			corrupt: replace("TOTAL              60 ", "TOTAL              59 "), wantInFail: "tenants"},
		{name: "non-zero exit", file: "fleet.stdout",
			corrupt: func(b []byte) []byte { return b }, exitErr: errors.New("exit status 1"), wantInFail: "exit status 1"},
		{name: "error line", file: "fleet.stdout",
			corrupt: func(b []byte) []byte { return b }, stderr: "cebench: macro-fleet: boom\n", wantInFail: "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mustWorkload(t, fixtureWorkloads[tc.file])
			e := &execution{stdout: tc.corrupt(fixture(t, tc.file)), stderr: []byte(tc.stderr), exitErr: tc.exitErr}
			b := &bench{sc: smokeScale}
			r := &result{w: w, digests: map[uint64]string{}}
			b.check(r, w, 2023, e)
			if r.attempted != 1 || r.failed != 1 {
				t.Fatalf("attempted %d, failed %d; want 1, 1 (failures %q)", r.attempted, r.failed, r.failures)
			}
			if !strings.Contains(strings.Join(r.failures, "\n"), tc.wantInFail) {
				t.Errorf("failures %q do not mention %q", r.failures, tc.wantInFail)
			}
			if wr := reportOf(r, nil); wr.FailFrac != 1 {
				t.Errorf("fail_frac = %v, want 1", wr.FailFrac)
			}
			if !strings.Contains(resultLine(r, false, nil), `"correct":false`) {
				t.Error("a failed execution did not fail the run")
			}
		})
	}
}

// A cell the ledgers cannot see (a latency percentile) still changes the
// digest, which every execution after the first must repeat.
func TestDigestCatchesWhatLedgersCannot(t *testing.T) {
	w := mustWorkload(t, "trace-s1")
	clean := fixture(t, "trace.stdout")
	flipped := bytes.Replace(clean, []byte("30    30    0.0080"), []byte("30    31    0.0080"), 1)
	b := &bench{sc: smokeScale}
	r := &result{w: w, digests: map[uint64]string{}}
	b.check(r, w, 2023, &execution{stdout: clean})
	b.check(r, w, 2023, &execution{stdout: clean})
	b.check(r, w, 2023, &execution{stdout: flipped})
	if r.attempted != 3 || r.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 3, 1 (failures %q)", r.attempted, r.failed, r.failures)
	}
	if !strings.Contains(r.failures[0], "first execution's") {
		t.Errorf("failure %q does not name the digest mismatch", r.failures[0])
	}
}

func TestCompareSetsBounds(t *testing.T) {
	set := func(wall, rss, setup float64, digest string) []workloadReport {
		return []workloadReport{{
			Name: "fleet", Digest: digest, Counters: map[string]float64{"sim.events": 10},
			EndToEnd: map[string]stat{"wall_s": {Value: wall}, "peak_rss_mb": {Value: rss}, "setup_s": {Value: setup}},
		}}
	}
	exceeded := func(cs []comparison) []string {
		var out []string
		for _, c := range cs {
			if !c.OK {
				out = append(out, c.Metric)
			}
		}
		return out
	}
	// 24 % wall, 19 % RSS, and a set-up that differs by 40 % but under a second.
	if got := exceeded(compareSets(set(1, 100, 1, "d"), set(1.24, 119, 1.4, "d"))); len(got) != 0 {
		t.Errorf("within bounds, yet exceeded: %v", got)
	}
	got := exceeded(compareSets(set(1, 100, 4, "d"), set(1.26, 121, 5.1, "e")))
	if want := "wall_s peak_rss_mb setup_s counters+digest"; strings.Join(got, " ") != want {
		t.Errorf("exceeded = %v, want %s", got, want)
	}
}
