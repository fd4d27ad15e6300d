package scheduler

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// TestStragglerWindowForcesReplanning: a fault schedule slows every epoch by
// 4x without telling the scheduler anything — the inflation reaches
// Algorithm 2 only through the elapsed time it ordinarily observes. Under a
// deadline calibrated to the calm run, the scheduler must notice the
// pressure through its normal decision path and re-plan: the decision log
// records escalation path= entries and an allocation switch that the calm
// run never needed.
func TestStragglerWindowForcesReplanning(t *testing.T) {
	w := workload.MobileNet()

	run := func(sched *fault.Schedule, qos float64) (*Scheduler, *trainer.Result, *obs.Observer) {
		t.Helper()
		m := cost.NewModel(w)
		o := obs.New()
		s := New(Config{
			Model: m, Candidates: m.ParetoSet(cost.DefaultGrid()),
			Budget: 0, QoS: qos,
			TargetLoss:     w.TargetLoss,
			DelayedRestart: true,
			// A tight δ re-evaluates the selection on small drifts, so the
			// fault pressure is observed promptly in both runs; the calm
			// run still never needs to escalate.
			Delta:       0.01,
			Offline:     predictor.NewOffline(w),
			OfflineSeed: 7,
			Obs:         o,
		})
		if qos == 0 {
			s.qos = 0
			s.budget = 1e9 // unconstrained probe
		}
		r := trainer.NewRunner(11)
		alloc, _ := s.Initial()
		res := new(trainer.Result)
		if err := r.Run(trainer.Config{
			Workload:   w,
			Engine:     w.NewCurveEngine(workload.Hyperparams{LR: w.DefaultLR}, 13),
			Alloc:      alloc,
			TargetLoss: w.TargetLoss,
			MaxEpochs:  500,
			Faults:     sched,
			Controller: s.Controller(),
		}, res); err != nil {
			t.Fatal(err)
		}
		return &s, res, o
	}

	// Probe the calm JCT, then set a deadline the calm run meets easily.
	_, probe, _ := run(nil, 0)
	qos := probe.JCT * 1.5

	sCalm, calm, oCalm := run(nil, qos)
	if !calm.Converged || calm.JCT > qos {
		t.Fatalf("calm run missed the calibrated deadline: JCT %g vs %g", calm.JCT, qos)
	}

	sched := fault.MustNew(fault.StragglerWindow(0, 1e9, 4))
	sFault, faulty, oFault := run(sched, qos)
	if faulty.JCT <= calm.JCT {
		t.Fatalf("straggler did not slow the job: %g vs %g", faulty.JCT, calm.JCT)
	}
	// The decision log must show the re-plan: deadline pressure drove the
	// selection off the within-delta path into escalation, well beyond the
	// early prediction-noise escalations the calm run also sees.
	calmEsc := oCalm.Stats().Counter("scheduler.path.escalate-panic")
	faultEsc := oFault.Stats().Counter("scheduler.path.escalate-panic")
	if faultEsc <= calmEsc {
		t.Errorf("escalate-panic decisions: faulted %g <= calm %g — pressure never reached the decision log",
			faultEsc, calmEsc)
	}
	// The pressure produced real allocation switches (the faulted run
	// quickly pins to the fastest allocation and stays, so the calm run may
	// well adjust MORE often on drift noise — the point is that the faulted
	// run re-planned at all, and did it through escalation).
	if sFault.Restarts == 0 {
		t.Error("faulted scheduler never adjusted")
	}
	_ = sCalm
	if oFault.Stats().Counter("scheduler.decisions") == 0 {
		t.Error("decision log empty under faults")
	}
}
