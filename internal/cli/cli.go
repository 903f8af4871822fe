// Package cli centralises the conventions shared by every softcache
// command: exit 0 on success, 1 on runtime failure, 2 on usage errors,
// and every diagnostic on stderr prefixed with the tool's name.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
)

// Exit codes common to all softcache commands.
const (
	ExitOK      = 0 // success
	ExitFailure = 1 // runtime failure: simulation error, I/O, failing checks
	ExitUsage   = 2 // bad flags, bad arguments, unknown names
	// ExitOperational shares the numeric value of ExitUsage on purpose:
	// for the linter-style commands (softcache-vet, softcache-analyze)
	// exit 1 is reserved for findings, so anything that prevented the
	// check from running at all — unreadable source, a failed load —
	// must land on 2, the same "the run itself is broken" band as a
	// usage mistake. Scripts can then trust "1 means the code is dirty".
	ExitOperational = 2
)

// usageError marks an error as the caller's fault (exit 2) rather than a
// runtime failure (exit 1).
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// UsageErrorf builds an error that Code maps to ExitUsage.
func UsageErrorf(format string, args ...any) error {
	return &usageError{fmt.Errorf(format, args...)}
}

// Usage wraps err so Code maps it to ExitUsage. Wrapping nil returns nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return &usageError{err}
}

// IsUsage reports whether err is (or wraps) a usage error.
func IsUsage(err error) bool {
	var ue *usageError
	return errors.As(err, &ue)
}

// operationalError marks an error as an environment or infrastructure
// failure — the check could not run, as opposed to the check failing.
// Linter-style commands map it to ExitOperational so findings keep
// exit 1 to themselves.
type operationalError struct{ err error }

func (e *operationalError) Error() string { return e.err.Error() }
func (e *operationalError) Unwrap() error { return e.err }

// Operational wraps err so Code maps it to ExitOperational. Wrapping
// nil returns nil.
func Operational(err error) error {
	if err == nil {
		return nil
	}
	return &operationalError{err}
}

// IsOperational reports whether err is (or wraps) an operational error.
func IsOperational(err error) bool {
	var oe *operationalError
	return errors.As(err, &oe)
}

// Code maps an error to the conventional exit code.
func Code(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case IsUsage(err):
		return ExitUsage
	case IsOperational(err):
		return ExitOperational
	default:
		return ExitFailure
	}
}

// Errorln prints err to w prefixed "tool: " unless the message already
// starts with that prefix (errors wrapped by the tool's own packages
// often do).
func Errorln(w io.Writer, tool string, err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, tool+":") {
		msg = tool + ": " + msg
	}
	fmt.Fprintln(w, msg)
}

// Exit prints err (if any) with Errorln and returns its exit code — the
// idiom for the tail of every command's run function:
//
//	return cli.Exit(stderr, "softcache-sim", runSim(...))
func Exit(w io.Writer, tool string, err error) int {
	if err != nil {
		Errorln(w, tool, err)
	}
	return Code(err)
}

// Parse parses args into fs and leaves fs writing to stderr. The flag
// package's own diagnostics (an unknown flag, a malformed value) are
// prefixed with the tool's name, like every other diagnostic, and are
// followed by the usage text; -h prints the usage alone. A non-nil error
// means the command should exit ExitUsage.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(stderr)
	if err != nil {
		if err != flag.ErrHelp {
			Errorln(stderr, fs.Name(), err)
		}
		fs.Usage()
	}
	return err
}
