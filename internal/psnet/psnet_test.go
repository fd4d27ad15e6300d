package psnet

import (
	"math"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T, workers int, lr float64) (*Server, string) {
	t.Helper()
	s, err := NewServer(workers, lr)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0, 0.1); err == nil {
		t.Error("zero workers should be rejected")
	}
	if _, err := NewServer(2, 0); err == nil {
		t.Error("zero lr should be rejected")
	}
}

func TestInitPullRoundTrip(t *testing.T) {
	_, addr := startServer(t, 1, 0.5)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Init([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	model, round, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 || len(model) != 3 || model[1] != 2 {
		t.Errorf("Pull = %v round %d", model, round)
	}
}

func TestInitFirstWins(t *testing.T) {
	_, addr := startServer(t, 1, 0.5)
	c, _ := Dial(addr, 0)
	defer c.Close()
	c.Init([]float64{1})
	c.Init([]float64{99})
	model, _, _ := c.Pull()
	if model[0] != 1 {
		t.Errorf("second Init overwrote the model: %v", model)
	}
}

func TestPullBeforeInitFails(t *testing.T) {
	_, addr := startServer(t, 1, 0.5)
	c, _ := Dial(addr, 0)
	defer c.Close()
	if _, _, err := c.Pull(); err == nil {
		t.Error("Pull before Init should fail")
	}
}

func TestSingleWorkerSGDStep(t *testing.T) {
	s, addr := startServer(t, 1, 0.5)
	c, _ := Dial(addr, 0)
	defer c.Close()
	c.Init([]float64{10, 20})
	round, err := c.Push(0, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Errorf("round after push = %d, want 1", round)
	}
	model := s.Model()
	// model -= lr/1 * grad = [10-1, 20-2]
	if model[0] != 9 || model[1] != 18 {
		t.Errorf("model = %v, want [9 18]", model)
	}
}

func TestBSPBarrierAveragesAllWorkers(t *testing.T) {
	const n = 4
	s, addr := startServer(t, n, 1.0)
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addr, i)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	clients[0].Init([]float64{0})

	// All workers push concurrently; each blocks until the round closes.
	var wg sync.WaitGroup
	rounds := make([]int, n)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			r, err := c.Push(0, []float64{float64(i + 1)}) // grads 1..4
			if err != nil {
				t.Error(err)
				return
			}
			rounds[i] = r
		}(i, c)
	}
	wg.Wait()
	for i, r := range rounds {
		if r != 1 {
			t.Errorf("worker %d saw round %d, want 1", i, r)
		}
	}
	// Average gradient = (1+2+3+4)/4 = 2.5; lr 1.0 -> model = -2.5.
	if m := s.Model(); math.Abs(m[0]+2.5) > 1e-12 {
		t.Errorf("model = %v, want [-2.5]", m)
	}
}

func TestStaleRoundRejected(t *testing.T) {
	_, addr := startServer(t, 1, 1.0)
	c, _ := Dial(addr, 0)
	defer c.Close()
	c.Init([]float64{0})
	if _, err := c.Push(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(0, []float64{1}); err == nil {
		t.Error("pushing the old round again should be rejected as stale")
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	_, addr := startServer(t, 1, 1.0)
	c, _ := Dial(addr, 0)
	defer c.Close()
	c.Init([]float64{0, 0})
	if _, err := c.Push(0, []float64{1}); err == nil {
		t.Error("wrong-dimension gradient should be rejected")
	}
}

func TestDuplicatePushRejected(t *testing.T) {
	_, addr := startServer(t, 2, 1.0)
	c0, _ := Dial(addr, 0)
	defer c0.Close()
	c0b, _ := Dial(addr, 0) // same worker id, second connection
	defer c0b.Close()
	c0.Init([]float64{0})

	// Both connections push for worker 0; whichever the server sees second
	// must be rejected while the first blocks on the open round.
	errs := make(chan error, 2)
	for _, c := range []*Client{c0, c0b} {
		go func() {
			_, err := c.Push(0, []float64{1})
			errs <- err
		}()
	}
	if err := <-errs; err == nil {
		t.Error("duplicate worker push should be rejected")
	}
	// Unblock the round with the missing worker.
	c1, _ := Dial(addr, 1)
	defer c1.Close()
	if _, err := c1.Push(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("first worker's push failed: %v", err)
	}
}

func TestManyRoundsConverge(t *testing.T) {
	// Minimize f(x) = (x-3)^2 with two workers both pushing the exact
	// gradient 2(x-3); plain SGD converges to 3.
	const n = 2
	s, addr := startServer(t, n, 0.2)
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addr, i)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	clients[0].Init([]float64{0})
	for round := 0; round < 40; round++ {
		model := s.Model()
		grad := 2 * (model[0] - 3)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if _, err := c.Push(round, []float64{grad}); err != nil {
					t.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	if m := s.Model(); math.Abs(m[0]-3) > 1e-3 {
		t.Errorf("converged to %v, want ~3", m)
	}
	pushes, _ := s.Stats()
	if pushes != 80 {
		t.Errorf("pushes = %d, want 80", pushes)
	}
}

func TestLinkDelayDegradesOneWorker(t *testing.T) {
	s, addr := startServer(t, 1, 0.5)
	c, err := Dial(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Init([]float64{1}); err != nil {
		t.Fatal(err)
	}

	s.SetLinkDelay(3, 30*time.Millisecond)
	start := time.Now()
	if _, _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("degraded link round trip %v, want >= 30ms", d)
	}

	// Other links are untouched: a second worker's connection replies fast.
	other, err := Dial(addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	start = time.Now()
	if _, _, err := other.Pull(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 30*time.Millisecond {
		t.Errorf("undegraded link round trip %v, want fast", d)
	}

	// The wildcard covers workers without explicit entries; clearing an
	// entry restores it to the wildcard, and clearing the wildcard restores
	// full speed.
	s.SetLinkDelay(-1, 30*time.Millisecond)
	start = time.Now()
	if _, _, err := other.Pull(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("wildcard-degraded round trip %v, want >= 30ms", d)
	}
	s.SetLinkDelay(-1, 0)
	s.SetLinkDelay(3, 0)
	start = time.Now()
	if _, _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 30*time.Millisecond {
		t.Errorf("restored link round trip %v, want fast", d)
	}
}
