package trainer

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/faas"
	"repro/internal/sim"
)

// Arrival is one job of a shared run: its configuration and when it arrives
// on the runner's clock.
type Arrival struct {
	At     float64 // seconds
	Config Config
}

// Outcome reports one completed job of a shared run.
type Outcome struct {
	Job int // index of the job's Arrival
	// Admitted is when the job's function group was admitted (>= its
	// arrival when it had to queue).
	Admitted float64
	// Finished is the shared-clock time the job completed.
	Finished float64
	Result   *Result
}

// RunShared runs several jobs on the runner's substrate, where the
// account's concurrency cap is a contended resource (the multi-tenant
// setting of SLAQ and Optimus): each job is admitted at its arrival, and
// the discrete-event kernel interleaves the jobs' epochs on the shared
// clock. A job whose group the cap refuses waits in FIFO order and is
// retried whenever another job finishes; a refused head keeps its place.
// Jobs must use fixed allocations: a mid-job group change could itself be
// refused, which the FIFO queue does not arbitrate. The outcomes come back
// in completion order.
//
// Each job's first epoch runs on the shared clock at admission + startup,
// where Run's runs at the admission instant; a lone fixed-allocation job
// without faults gives the same Result either way.
func (r *Runner) RunShared(jobs []Arrival) ([]Outcome, error) {
	for i, a := range jobs {
		if a.Config.Controller != nil {
			return nil, fmt.Errorf("trainer: shared job %d has a controller; shared jobs must use fixed allocations", i)
		}
		if a.At < 0 {
			return nil, fmt.Errorf("trainer: shared job %d arrives at negative time", i)
		}
	}

	type sharedJob struct {
		job     Job
		out     Outcome
		stepped float64 // job clock already scheduled on the shared clock
	}
	var (
		s        = r.sim
		outcomes []Outcome
		waiting  []*sharedJob
		errOut   error
		drain    func()
		step     func(sj *sharedJob)
	)

	step = func(sj *sharedJob) {
		if errOut != nil {
			return
		}
		j := &sj.job
		if j.done {
			sj.out.Result = j.finish()
			sj.out.Finished = sj.out.Admitted + j.clock
			outcomes = append(outcomes, sj.out)
			drain()
			return
		}
		if err := j.step(); err != nil {
			errOut = err
			return
		}
		// Wake up again at the epoch boundary the job reached.
		delta := j.clock - sj.stepped
		sj.stepped = j.clock
		if delta < 0 {
			delta = 0
		}
		s.ScheduleAfter(delta, func() { step(sj) })
	}

	// admit starts sj's job and reports false if the concurrency cap
	// refused it.
	admit := func(sj *sharedJob) bool {
		err := sj.job.start(r, jobs[sj.out.Job].Config, new(Result))
		if errors.Is(err, faas.ErrConcurrencyExceeded) {
			return false
		}
		if err != nil {
			errOut = err
			return true
		}
		sj.out.Admitted = float64(s.Now())
		// The startup and load are already on the job's clock; the first
		// epoch runs after them.
		sj.stepped = sj.job.clock
		s.ScheduleAfter(sj.job.clock, func() { step(sj) })
		return true
	}

	drain = func() {
		for len(waiting) > 0 && admit(waiting[0]) {
			waiting = waiting[1:]
		}
	}

	for i, a := range jobs {
		sj := &sharedJob{out: Outcome{Job: i}}
		s.Schedule(sim.Time(a.At), func() {
			if !admit(sj) {
				waiting = append(waiting, sj)
			}
		})
	}
	s.Run()
	if errOut != nil {
		return nil, errOut
	}
	if len(outcomes) != len(jobs) {
		return nil, fmt.Errorf("trainer: %d of %d shared jobs completed (deadlocked queue?)", len(outcomes), len(jobs))
	}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Finished < outcomes[j].Finished })
	return outcomes, nil
}
