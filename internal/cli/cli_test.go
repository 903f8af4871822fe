package cli

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
)

func TestCode(t *testing.T) {
	if got := Code(nil); got != ExitOK {
		t.Fatalf("Code(nil) = %d", got)
	}
	if got := Code(errors.New("boom")); got != ExitFailure {
		t.Fatalf("Code(runtime) = %d", got)
	}
	if got := Code(UsageErrorf("bad flag")); got != ExitUsage {
		t.Fatalf("Code(usage) = %d", got)
	}
	// Usage classification survives wrapping.
	wrapped := fmt.Errorf("context: %w", UsageErrorf("bad flag"))
	if got := Code(wrapped); got != ExitUsage {
		t.Fatalf("Code(wrapped usage) = %d", got)
	}
}

func TestUsageNilPassthrough(t *testing.T) {
	if Usage(nil) != nil {
		t.Fatal("Usage(nil) != nil")
	}
	if !IsUsage(Usage(errors.New("x"))) {
		t.Fatal("Usage(err) not classified as usage")
	}
}

func TestErrorlnPrefix(t *testing.T) {
	var b strings.Builder
	Errorln(&b, "softcache-sim", errors.New("no such trace"))
	if got := b.String(); got != "softcache-sim: no such trace\n" {
		t.Fatalf("got %q", got)
	}
	b.Reset()
	Errorln(&b, "softcache-sim", errors.New("softcache-sim: already prefixed"))
	if got := b.String(); got != "softcache-sim: already prefixed\n" {
		t.Fatalf("double prefix: %q", got)
	}
}

func TestExit(t *testing.T) {
	var b strings.Builder
	if got := Exit(&b, "tool", nil); got != ExitOK || b.Len() != 0 {
		t.Fatalf("Exit(nil) = %d, wrote %q", got, b.String())
	}
	if got := Exit(&b, "tool", UsageErrorf("nope")); got != ExitUsage {
		t.Fatalf("Exit(usage) = %d", got)
	}
	if !strings.Contains(b.String(), "tool: nope") {
		t.Fatalf("stderr = %q", b.String())
	}
}

// TestParse: the flag package's own diagnostics carry the tool prefix and
// are followed by the usage text once; -h prints the usage alone; both
// return an error, so the command exits ExitUsage.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		wantPrefix string
	}{
		{[]string{"-nosuchflag"}, "tool: flag provided but not defined: -nosuchflag\n"},
		{[]string{"-n", "x"}, `tool: invalid value "x" for flag -n: parse error` + "\n"},
		{[]string{"-h"}, "Usage of tool:\n"},
	} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.Int("n", 0, "a number")
		var errb strings.Builder
		if err := Parse(fs, tc.args, &errb); err == nil {
			t.Errorf("%v: no error", tc.args)
		}
		if got := errb.String(); !strings.HasPrefix(got, tc.wantPrefix) || strings.Count(got, "Usage of tool:") != 1 {
			t.Errorf("%v: stderr %q, want it to start %q and hold the usage once", tc.args, got, tc.wantPrefix)
		}
	}
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	n := fs.Int("n", 0, "a number")
	var errb strings.Builder
	if err := Parse(fs, []string{"-n", "3"}, &errb); err != nil || *n != 3 || errb.Len() != 0 {
		t.Errorf("good flags: err %v, n %d, stderr %q", err, *n, errb.String())
	}
	if fs.Output() != &errb {
		t.Error("fs does not write to stderr after Parse")
	}
}
