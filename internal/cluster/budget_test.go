package cluster

import "testing"

func TestRetryBudgetStartsFull(t *testing.T) {
	b := newRetryBudget(0.1, 5)
	for i := 0; i < 5; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdraw %d denied from a full burst-5 budget", i+1)
		}
	}
	if b.Withdraw() {
		t.Fatal("withdraw allowed past the burst")
	}
}

func TestRetryBudgetDepositRatio(t *testing.T) {
	b := newRetryBudget(0.5, 10)
	for b.Withdraw() {
	}
	// Two deposits at ratio 0.5 buy exactly one retry.
	b.Deposit()
	if b.Withdraw() {
		t.Fatal("half a token should not cover a withdrawal")
	}
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("two 0.5 deposits should cover one withdrawal")
	}
}

func TestRetryBudgetBurstCap(t *testing.T) {
	b := newRetryBudget(1, 3)
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	got := 0
	for b.Withdraw() {
		got++
	}
	if got != 3 {
		t.Fatalf("drained %d tokens, want burst cap 3", got)
	}
}

func TestRetryBudgetDefaults(t *testing.T) {
	b := newRetryBudget(0, 0)
	if b.ratio != 0.1 || b.burst != 10 {
		t.Fatalf("defaults ratio=%g burst=%g, want 0.1/10", b.ratio, b.burst)
	}
}
