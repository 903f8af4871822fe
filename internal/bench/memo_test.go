package bench

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softcache/internal/core"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// passCounter replaces the simulation behind Simulate for one test: it
// counts the simulations of every (trace, config) key and runs before,
// when set, ahead of each one.
type passCounter struct {
	mu     sync.Mutex
	perKey map[answerKey]int
	before func(name string, cfg core.Config)
}

func countPasses(t *testing.T) *passCounter {
	pc := &passCounter{perKey: map[answerKey]int{}}
	orig := simulate
	t.Cleanup(func() { simulate = orig })
	simulate = func(ctx context.Context, name string, cfg core.Config, tr *trace.Trace) (core.Result, error) {
		pc.mu.Lock()
		pc.perKey[answerKey{name, cfg}]++
		before := pc.before
		pc.mu.Unlock()
		if before != nil {
			before(name, cfg)
		}
		return orig(ctx, name, cfg, tr)
	}
	return pc
}

func (pc *passCounter) count(name string, cfg core.Config) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.perKey[answerKey{name, cfg}]
}

func (pc *passCounter) keys() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.perKey)
}

// answerCount reports how many answers c's memo holds.
func (c *Context) answerCount() int {
	c.answers.mu.Lock()
	defer c.answers.mu.Unlock()
	return len(c.answers.m)
}

// TestRunAllSimulatesEachKeyOnce: over one pass of every figure, each
// (trace, config) pair the figures ask Simulate for is simulated
// exactly once, however many figures and rows ask for it. At test scale
// and seed 1 the figures ask for 442 distinct pairs.
func TestRunAllSimulatesEachKeyOnce(t *testing.T) {
	pc := countPasses(t)
	ctx := NewContext(workloads.ScaleTest, 1)
	if _, err := RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	for k, n := range pc.perKey {
		if n != 1 {
			t.Errorf("%s / %s simulated %d times, want once", k.trace, core.Describe(k.cfg), n)
		}
	}
	if n := pc.keys(); n != 442 {
		t.Errorf("%d distinct (trace, config) simulations, want 442", n)
	}
	if n := ctx.answerCount(); n != pc.keys() {
		t.Errorf("memo holds %d answers, want the %d simulated", n, pc.keys())
	}
}

// doneSpy is a context whose first Done call, made when a Simulate
// caller starts waiting on another caller's flight, closes waiting.
type doneSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (s *doneSpy) Done() <-chan struct{} {
	s.once.Do(func() { close(s.waiting) })
	return s.Context.Done()
}

// nextPass returns the release channel of the next simulation to start.
func nextPass(t *testing.T, passes <-chan chan struct{}) chan struct{} {
	t.Helper()
	select {
	case release := <-passes:
		return release
	case <-time.After(time.Minute):
		t.Fatal("no simulation started")
		return nil
	}
}

// TestCancelledAnswerIsNotKept: a simulation whose figure is cancelled
// leaves no answer behind. A caller already waiting on it computes the
// answer itself and succeeds, and a later call from a live context
// computes it too instead of inheriting context.Canceled.
func TestCancelledAnswerIsNotKept(t *testing.T) {
	pc := countPasses(t)
	base := NewContext(workloads.ScaleTest, 1)
	fresh := NewContext(workloads.ScaleTest, 1)
	var want [2]core.Result
	for i, cfg := range []core.Config{core.Standard(), core.Soft()} {
		var err error
		if want[i], err = fresh.Simulate("MV", cfg); err != nil {
			t.Fatal(err)
		}
	}
	pc.perKey = map[answerKey]int{}
	cfg := core.Standard()

	// A figure cancelled before its pass: nothing is stored, and the next
	// live call computes the answer.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := base.WithContext(dead).Simulate("MV", cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Simulate: err = %v, want context.Canceled", err)
	}
	if n := base.answerCount(); n != 0 {
		t.Fatalf("a cancelled pass left %d answers", n)
	}
	got, err := base.Simulate("MV", cfg)
	if err != nil || got != want[0] {
		t.Fatalf("live call after the cancelled one = (%v, %v), want %v", got, err, want[0])
	}
	if n := pc.count("MV", cfg); n != 2 {
		t.Fatalf("MV simulated %d times, want 2 (cancelled, then live)", n)
	}

	// A figure cancelled mid-pass while another waits on its answer.
	cfg = core.Soft()
	passes := make(chan chan struct{}, 2)
	pc.mu.Lock()
	pc.before = func(string, core.Config) {
		release := make(chan struct{})
		passes <- release
		<-release
	}
	pc.mu.Unlock()
	runCtx, cancelRun := context.WithCancel(context.Background())
	claimant := make(chan error)
	go func() {
		_, err := base.WithContext(runCtx).Simulate("MV", cfg)
		claimant <- err
	}()
	first := nextPass(t, passes) // the claimant's pass is running
	spy := &doneSpy{Context: context.Background(), waiting: make(chan struct{})}
	type result struct {
		res core.Result
		err error
	}
	waiter := make(chan result)
	go func() {
		res, err := base.WithContext(spy).Simulate("MV", cfg)
		waiter <- result{res, err}
	}()
	<-spy.waiting
	cancelRun()
	close(first)
	if err := <-claimant; !errors.Is(err, context.Canceled) {
		t.Fatalf("claimant: err = %v, want context.Canceled", err)
	}
	second := nextPass(t, passes) // the waiter recomputes
	if n := base.answerCount(); n != 1 {
		t.Fatalf("memo holds %d answers while the waiter recomputes, want only the first key's", n)
	}
	close(second)
	if r := <-waiter; r.err != nil || r.res != want[1] {
		t.Fatalf("waiter = (%v, %v), want %v", r.res, r.err, want[1])
	}
	if n := pc.count("MV", cfg); n != 2 {
		t.Fatalf("MV/Soft simulated %d times, want 2 (cancelled, then the waiter's)", n)
	}
}

// TestCheckedRunsNeverShareAnswers: Check arms the runtime checker inside
// the config, so a checked and an unchecked context sharing one memo
// each simulate their own answer.
func TestCheckedRunsNeverShareAnswers(t *testing.T) {
	pc := countPasses(t)
	plain := NewContext(workloads.ScaleTest, 1)
	checked := plain.WithContext(context.Background())
	checked.Check = true
	cfgs := []core.Config{core.Standard(), core.Soft()}
	for _, c := range []*Context{plain, checked, plain, checked} {
		for _, cfg := range cfgs {
			if _, err := c.Simulate("MV", cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := pc.keys(); n != 4 {
		t.Fatalf("%d keys simulated, want 4 (two configs, checked and not)", n)
	}
	for k, n := range pc.perKey {
		if n != 1 {
			t.Errorf("%s (checks %v) simulated %d times, want once", core.Describe(k.cfg), k.cfg.RuntimeChecks, n)
		}
	}
}

// parkPass makes the next MV pass wait until the returned release is
// closed; started is closed once that pass has begun.
func (pc *passCounter) parkPass() (started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	pc.mu.Lock()
	pc.before = func(name string, _ core.Config) {
		if name == "MV" {
			once.Do(func() {
				close(started)
				<-release
			})
		}
	}
	pc.mu.Unlock()
	return started, release
}

// armedSpy is a context whose first Done call after arm closes waiting.
// Armed just before a row's Simulate, whose key another caller holds, it
// reports the row parked on that caller's flight.
type armedSpy struct {
	context.Context
	armed   atomic.Bool
	once    sync.Once
	waiting chan struct{}
}

func (s *armedSpy) Done() <-chan struct{} {
	if s.armed.Load() {
		s.once.Do(func() { close(s.waiting) })
	}
	return s.Context.Done()
}

// TestWaitingRowKeepsItsToken: on a budget of one token, a row that waits
// on an answer another caller is computing keeps the token while it waits,
// and does not stall that caller, whose pass needs no token: both finish,
// the answer is simulated once, and the token comes back.
func TestWaitingRowKeepsItsToken(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pc := countPasses(t)
	ctx := NewContext(workloads.ScaleTest, 1)
	started, release := pc.parkPass()
	cfg := core.Standard()
	errc := make(chan error, 2)
	go func() { // not a row: holds no token while it computes
		_, err := ctx.Simulate("MV", cfg)
		errc <- err
	}()
	<-started
	spy := &armedSpy{Context: context.Background(), waiting: make(chan struct{})}
	go func() {
		errc <- ctx.WithContext(spy).each(1, func(rc *Context, _ int) error {
			spy.armed.Store(true)
			_, err := rc.Simulate("MV", cfg)
			return err
		})
	}()
	<-spy.waiting
	if n := len(ctx.budget); n != 1 {
		t.Fatalf("the waiting row holds %d tokens, want 1", n)
	}
	close(release)
	for k := 0; k < 2; k++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Minute):
			t.Fatal("the claimant stalled behind the waiting row")
		}
	}
	if n := pc.count("MV", cfg); n != 1 {
		t.Fatalf("MV simulated %d times, want once", n)
	}
	if n := len(ctx.budget); n != 0 {
		t.Fatalf("%d tokens still held", n)
	}
}

// TestFiguresWaitingOnOneAnswerFinish: on a budget of two tokens, two
// figures whose rows, helpers and nested rows all ask for an answer a
// third caller is computing both finish once it lands. Every row waits
// with its token in hand, so the helpers a figure starts on free tokens
// can never be left without one while the figures wait for them.
func TestFiguresWaitingOnOneAnswerFinish(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pc := countPasses(t)
	ctx := NewContext(workloads.ScaleTest, 1)
	started, release := pc.parkPass()
	cfg := core.Standard()
	errc := make(chan error, 3)
	go func() {
		_, err := ctx.Simulate("MV", cfg)
		errc <- err
	}()
	<-started
	row := func(rc *Context, i int) error {
		if _, err := rc.Simulate("MV", cfg); err != nil {
			return err
		}
		if i != 0 {
			return nil
		}
		return rc.each(2, func(rc *Context, _ int) error {
			_, err := rc.Simulate("MV", cfg)
			return err
		})
	}
	for f := 0; f < 2; f++ {
		go func() { errc <- ctx.WithContext(context.Background()).each(4, row) }()
	}
	waitFor(t, "both figures hold a token", func() bool { return len(ctx.budget) == 2 })
	close(release)
	for k := 0; k < 3; k++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Minute):
			t.Fatal("figures deadlocked waiting on one answer")
		}
	}
	if n := pc.count("MV", cfg); n != 1 {
		t.Fatalf("MV simulated %d times, want once", n)
	}
	if n := len(ctx.budget); n != 0 {
		t.Fatalf("%d tokens still held", n)
	}
}

// waitFor polls cond for up to a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}
