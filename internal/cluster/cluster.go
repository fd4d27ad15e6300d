// Package cluster schedules multiple training jobs on one shared serverless
// substrate: the account-level concurrency cap becomes a contended resource,
// jobs queue when their function groups cannot be admitted, and the
// discrete-event kernel interleaves their epochs on the shared virtual
// clock. This is the multi-tenant setting the paper's related work (SLAQ,
// Optimus) schedules for; CE-scaling plans per job, and this package shows
// what happens when those plans meet each other.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/trainer"
)

// Submission is one job plus its arrival time on the cluster clock.
type Submission struct {
	Name    string
	Arrival float64 // seconds
	Config  trainer.Config
}

// Outcome reports one completed job.
type Outcome struct {
	Name    string
	Arrival float64
	// Admitted is when the job's function group was actually admitted
	// (>= Arrival when it had to queue).
	Admitted float64
	// Finished is the cluster time the job completed.
	Finished float64
	// QueueDelay = Admitted - Arrival.
	QueueDelay float64
	Result     *trainer.Result
}

// Makespan helpers.
func (o *Outcome) TurnaroundTime() float64 { return o.Finished - o.Arrival }

// Run executes the submissions on the runner's substrate and returns the
// outcomes in completion order. Jobs whose admission is rejected by the
// concurrency cap wait in FIFO order and are retried whenever another job
// finishes. Jobs should use fixed allocations (no controller-driven
// restarts): a mid-job group change could itself be throttled, which the
// scheduler does not arbitrate.
func Run(r *trainer.Runner, subs []Submission) ([]*Outcome, error) {
	for i, s := range subs {
		if s.Config.Controller != nil {
			return nil, fmt.Errorf("cluster: submission %d (%s) has a controller; cluster jobs must use fixed allocations", i, s.Name)
		}
		if s.Arrival < 0 {
			return nil, fmt.Errorf("cluster: submission %d (%s) arrives at negative time", i, s.Name)
		}
	}

	type runningJob struct {
		sub     Submission
		job     *trainer.Job
		out     *Outcome
		stepped float64 // job-relative time already scheduled
	}
	var (
		outcomes []*Outcome
		waiting  []*runningJob
		errOut   error
	)

	// The cluster scheduler interleaves jobs on the shared virtual clock: the
	// runner's discrete-event kernel.
	s := r.Sim()

	var admit func(rj *runningJob) bool
	var stepEvent func(rj *runningJob)
	var drainQueue func()

	finish := func(rj *runningJob) {
		rj.out.Result = rj.job.Finish()
		rj.out.Finished = rj.out.Admitted + rj.job.Elapsed()
		outcomes = append(outcomes, rj.out)
		drainQueue()
	}

	stepEvent = func(rj *runningJob) {
		if errOut != nil {
			return
		}
		if rj.job.Done() {
			finish(rj)
			return
		}
		if err := rj.job.Step(); err != nil {
			errOut = err
			return
		}
		// Schedule the next wake-up at the epoch boundary the job reached.
		delta := rj.job.Elapsed() - rj.stepped
		rj.stepped = rj.job.Elapsed()
		if delta < 0 {
			delta = 0
		}
		s.ScheduleAfter(delta, func() { stepEvent(rj) })
	}

	// admit starts rj's job and reports false if the concurrency cap
	// refused it.
	admit = func(rj *runningJob) bool {
		job, err := r.StartJob(rj.sub.Config)
		if errors.Is(err, faas.ErrConcurrencyExceeded) {
			return false
		}
		if err != nil {
			errOut = err
			return true
		}
		rj.job = job
		rj.out.Admitted = float64(s.Now())
		rj.out.QueueDelay = rj.out.Admitted - rj.out.Arrival
		// The startup+load already elapsed inside StartJob; schedule the
		// first epoch after it.
		rj.stepped = job.Elapsed()
		s.ScheduleAfter(job.Elapsed(), func() { stepEvent(rj) })
		return true
	}

	// drainQueue admits waiters in FIFO order: a refused head keeps its
	// place at the front, and the jobs behind it keep waiting.
	drainQueue = func() {
		for len(waiting) > 0 && admit(waiting[0]) {
			waiting = waiting[1:]
		}
	}

	for _, sub := range subs {
		sub := sub
		rj := &runningJob{sub: sub, out: &Outcome{Name: sub.Name, Arrival: sub.Arrival}}
		s.Schedule(sim.Time(sub.Arrival), func() {
			if !admit(rj) {
				waiting = append(waiting, rj)
			}
		})
	}
	s.Run()
	if errOut != nil {
		return nil, errOut
	}
	if len(outcomes) != len(subs) {
		return nil, fmt.Errorf("cluster: %d of %d jobs completed (deadlocked queue?)", len(outcomes), len(subs))
	}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Finished < outcomes[j].Finished })
	return outcomes, nil
}

// Makespan returns the latest completion time across outcomes.
func Makespan(outs []*Outcome) float64 {
	var m float64
	for _, o := range outs {
		if o.Finished > m {
			m = o.Finished
		}
	}
	return m
}
