//go:build linux || darwin

package main

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedWriteKeepsSpecialTarget: a conversion that fails mid-stream
// removes its partial output only when -out was a regular file or new; a
// FIFO or a symlink named by -out survives.
func TestFailedWriteKeepsSpecialTarget(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "w.sctz")
	if _, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-out", in); code != 0 {
		t.Fatalf("generate: exit %d: %s", code, errb)
	}
	data, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fifo := filepath.Join(dir, "out.fifo")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if f, err := os.Open(fifo); err == nil {
			io.Copy(io.Discard, f)
			f.Close()
		}
	}()
	target := filepath.Join(dir, "target.trace")
	if err := os.WriteFile(target, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "out.link")
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}

	for _, out := range []string{fifo, link} {
		if _, errb, code := runTool(t, "-in", in, "-out", out, "-format", "flat"); code == 0 {
			t.Fatalf("-out %s: corrupt stream converted: %s", filepath.Base(out), errb)
		}
		fi, err := os.Lstat(out)
		if err != nil {
			t.Fatalf("-out %s removed: %v", filepath.Base(out), err)
		}
		if fi.Mode().IsRegular() {
			t.Fatalf("-out %s replaced by a regular file", filepath.Base(out))
		}
		if out == fifo {
			<-drained
		}
	}
	if _, err := os.Stat(target); err != nil {
		t.Fatalf("symlink target removed: %v", err)
	}
}
