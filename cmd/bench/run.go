package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench holds what one invocation of the driver shares between workloads.
// It is a closed loop of one client: one child process at a time, started
// only after the previous one has been waited for.
type bench struct {
	sc      scale
	seed    uint64  // names the sample of inputs: see seedAt
	sample  int     // how many seeds the measured repeats cycle through
	repeats int     // measured executions per workload, at least
	seconds float64 // keep repeating until this much time was measured
	setups  int     // timed build + warm-up rounds per workload
	layers  bool
	full    bool   // full-size workloads: golden digests apply
	tmp     string // scratch directory, absolute, inside -out
	bin     string // the built cebench
	log     *spanLog
	root    int // id of the "bench" span
}

// result is everything measured on one workload.
type result struct {
	w         *workload
	digest    string            // stdout SHA-256 at -seed itself
	digests   map[uint64]string // per seed: what every execution at it must repeat
	attempted int               // child executions: warm-ups, repeats, verification
	failed    int
	failures  []string // what the failed executions violated
	obs       *observed
	// One sample per untraced execution, warm-ups and measured repeats alike
	// (wall, rss, cpu, self), or per set-up round (setup, build).
	wall, rss, cpu, self, setup, build []float64
	artifacts                          map[string][]float64 // id → wall per repeat
	layer                              map[string]float64   // -layers only
}

// buildCebench links cebench from the checkout's source, removing the old
// binary first so that every timed build does the same work.
func (b *bench) buildCebench() (float64, error) {
	if err := os.Remove(b.bin); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	start := time.Now()
	out, err := exec.Command("go", "build", "-o", b.bin, "./cmd/cebench").CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go build ./cmd/cebench (run the benchmark from the repository root): %v\n%s", err, out)
	}
	return time.Since(start).Seconds(), nil
}

// exec runs cebench once and waits for it. Stdout and stderr go straight to
// files, so the driver does nothing while the child runs; wall time is exec
// to exit, CPU time and peak RSS are the child's rusage from wait4.
func (b *bench) exec(args []string, env ...string) *execution {
	e := &execution{}
	outPath, errPath := filepath.Join(b.tmp, "stdout"), filepath.Join(b.tmp, "stderr")
	outF, err := os.Create(outPath)
	if err != nil {
		e.exitErr = err
		return e
	}
	defer outF.Close()
	errF, err := os.Create(errPath)
	if err != nil {
		e.exitErr = err
		return e
	}
	defer errF.Close()

	cmd := exec.Command(b.bin, args...)
	cmd.Dir = b.tmp
	cmd.Stdout, cmd.Stderr = outF, errF
	cmd.Env = append(os.Environ(), env...)
	start := time.Now()
	e.exitErr = cmd.Run()
	e.wallS = time.Since(start).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		e.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			e.peakRSSMB = float64(ru.Maxrss) / 1024 // kB on Linux
			if runtime.GOOS == "darwin" {
				e.peakRSSMB /= 1024 // bytes there
			}
		}
	}
	if e.stdout, err = os.ReadFile(outPath); err != nil && e.exitErr == nil {
		e.exitErr = err
	}
	if e.stderr, err = os.ReadFile(errPath); err != nil && e.exitErr == nil {
		e.exitErr = err
	}
	return e
}

// seedAt returns the i-th seed of the sample that -seed names: the seed
// itself, then values derived from it. Work per execution depends on the seed
// (macro-trace draws per-tenant rates, fig15 trains to a loss target) by more
// than the end-to-end bounds, so a run measures a fixed sample of seeds, one
// per repeat in rotation, instead of one seed many times; what it reports
// then moves little when -seed changes. Set-up, verification, the traced
// execution and every exact counter use -seed itself.
func (b *bench) seedAt(i int) uint64 {
	if i == 0 {
		return b.seed
	}
	x := b.seed + uint64(i)*0x9e3779b97f4a7c15 // splitmix64
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x ^ x>>31) >> 33 // 31 bits, readable on a command line
}

func (b *bench) argsFor(w *workload, seed uint64) []string {
	return append([]string{"-seed", strconv.FormatUint(seed, 10)}, w.args(b.sc)...)
}

// check verifies one execution and books it on the result. The first
// execution at a seed fixes the digest every later one at it must repeat.
func (b *bench) check(r *result, w *workload, seed uint64, e *execution) *observed {
	o, fails := verify(w, b.sc, e)
	if first, ok := r.digests[seed]; ok {
		fails = append(fails, checkDigest("first execution's", o.digest, first)...)
	} else {
		r.digests[seed] = o.digest
		if golden, ok := b.golden(w, seed); ok {
			fails = append(fails, checkDigest("golden", o.digest, golden)...)
		}
	}
	if r.obs == nil {
		r.digest, r.obs = o.digest, o
	}
	r.book(fails)
	return o
}

// book counts one child execution and what it violated, if anything.
func (r *result) book(fails []string) {
	r.attempted++
	if len(fails) > 0 {
		r.failed++
		r.failures = append(r.failures, fails...)
	}
}

// sample books the measurements of one untraced execution. Warm-ups are
// samples too: wall_s is the fastest execution, which a cold one cannot be,
// and the other metrics do not depend on what ran before.
func (r *result) sample(e *execution, o *observed) {
	inArtifacts := 0.0
	for _, a := range o.artifacts {
		inArtifacts += a.dur.Seconds()
		r.artifacts[a.id] = append(r.artifacts[a.id], a.dur.Seconds())
	}
	r.wall = append(r.wall, e.wallS)
	r.rss = append(r.rss, e.peakRSSMB)
	r.cpu = append(r.cpu, e.cpuS)
	r.self = append(r.self, e.wallS-inArtifacts)
}

// golden returns the committed digest for a full-size workload at this seed.
// Only paper artifacts have one: they never re-baseline. Macro scenarios may,
// with a CHANGES.md note, so their digests are only printed.
func (b *bench) golden(w *workload, seed uint64) (string, bool) {
	if !b.full {
		return "", false
	}
	data, err := os.ReadFile(fmt.Sprintf("benchmark/golden/%s.seed%d.sha256", w.name, seed))
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(data)), true
}

// run measures one workload: set-up rounds (timed build + warm-up), the
// sameAs verification, then the measured repeats, which go on until b.repeats
// of them and b.seconds seconds are both reached.
func (b *bench) run(w *workload) (*result, error) {
	r := &result{w: w, digests: map[uint64]string{}, artifacts: map[string][]float64{}}
	args := b.argsFor(w, b.seed)

	for i := 0; i < b.setups; i++ {
		sp := b.log.begin(b.root, "setup", w.name, i)
		bs := b.log.begin(sp, "build", w.name, i)
		buildS, err := b.buildCebench()
		b.log.end(bs)
		if err != nil {
			return nil, err
		}
		ws := b.log.begin(sp, "warmup", w.name, i)
		e := b.exec(args)
		b.log.end(ws)
		b.log.end(sp)
		r.sample(e, b.check(r, w, b.seed, e))
		r.build = append(r.build, buildS)
		r.setup = append(r.setup, buildS+e.wallS)
	}

	if w.sameAs != "" {
		other, err := workloadByName(w.sameAs)
		if err != nil {
			return nil, err
		}
		o, fails := verify(other, b.sc, b.exec(b.argsFor(other, b.seed)))
		fails = append(fails, checkDigest(w.name+"'s", o.digest, r.digest)...)
		r.book(fails)
	}

	start := time.Now()
	for i := 0; i < b.repeats || time.Since(start).Seconds() < b.seconds; i++ {
		rs := b.log.begin(b.root, "repeat/"+strconv.Itoa(i), w.name, i)
		es := b.log.begin(rs, "exec", w.name, i)
		execStart := b.log.now()
		seed := b.seedAt(i % b.sample)
		e := b.exec(b.argsFor(w, seed))
		b.log.end(es)
		o := b.check(r, w, seed, e)
		b.log.end(rs)

		r.sample(e, o)
		at := execStart
		for _, a := range o.artifacts {
			b.log.lay(es, "artifact/"+a.id, at, a.dur.Seconds())
			at += a.dur.Seconds()
		}
	}

	if b.layers {
		if err := b.profile(r, w, args); err != nil {
			return nil, err
		}
	}
	return r, nil
}
