package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestProgramPrinting(t *testing.T) {
	out, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-program")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"PROGRAM MV", "temporal=1 spatial=1", "temporal=0 spatial=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestStats(t *testing.T) {
	out, errb, code := runTool(t, "-workload", "SpMV", "-scale", "test", "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"Reuse distances", "Vector lengths", "Tag fractions", "Issue gaps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestDump(t *testing.T) {
	out, _, code := runTool(t, "-workload", "MV", "-scale", "test", "-dump", "-n", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header line + 3 records.
	if len(lines) != 4 {
		t.Fatalf("dump lines = %d:\n%s", len(lines), out)
	}
}

func TestSaveAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mv.trace")
	out, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-out", path)
	if code != 0 {
		t.Fatalf("save: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("missing write confirmation:\n%s", out)
	}
	out2, errb2, code := runTool(t, "-in", path, "-stats")
	if code != 0 {
		t.Fatalf("reload: exit %d: %s", code, errb2)
	}
	if !strings.Contains(out2, "trace MV:") {
		t.Fatalf("reloaded trace lost its name:\n%s", out2)
	}
	// Round trip must preserve the record count.
	l1 := strings.Split(out, "\n")[0]
	l2 := strings.Split(out2, "\n")[0]
	if l1 != l2 {
		t.Fatalf("record counts differ: %q vs %q", l1, l2)
	}
}

func TestTraceErrors(t *testing.T) {
	cases := [][]string{
		{}, // nothing to do
		{"-workload", "nope"},
		{"-workload", "MV", "-in", "x"},
		{"-in", "/nonexistent"},
		{"-workload", "MV", "-scale", "huge"},
	}
	for _, args := range cases {
		if _, _, code := runTool(t, args...); code == 0 {
			t.Fatalf("args %v should fail", args)
		}
	}
}

func TestSourceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.loop")
	src := "program k\narray A(64)\ndo i = 0, 63\nload A(i)\nend\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runTool(t, "-source", path, "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "trace k: 64 references") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// -program on a source file prints the tagged nest.
	out2, _, code := runTool(t, "-source", path, "-program")
	if code != 0 || !strings.Contains(out2, "PROGRAM k") {
		t.Fatalf("program print failed (%d):\n%s", code, out2)
	}
	// Parse errors carry the file name and line.
	bad := filepath.Join(t.TempDir(), "bad.loop")
	if err := os.WriteFile(bad, []byte("program p\n@@@\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errb2, code := runTool(t, "-source", bad)
	if code == 0 || !strings.Contains(errb2, "bad.loop") || !strings.Contains(errb2, "line 2") {
		t.Fatalf("bad source: exit %d, stderr %q", code, errb2)
	}
}

func TestDinImport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.din")
	if err := os.WriteFile(path, []byte("0 1000\n1 1008\n2 9999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runTool(t, "-in", path, "-dump", "-n", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "trace w: 2 references") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "W 0x00001008") {
		t.Fatalf("write record missing:\n%s", out)
	}
	// Mutually exclusive with -workload.
	if _, _, code := runTool(t, "-in", path, "-workload", "MV"); code == 0 {
		t.Fatal("-in with -workload should fail")
	}
}

// TestDinGzipName: a gzipped din file is named by one rule, the file name
// with its .gz and format extensions stripped, whatever the tool does
// with it.
func TestDinGzipName(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "foo.din.gz")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write([]byte("0 1000\n1 1008\n0 1010\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-stats"}, "trace foo: 3 references"},
		{[]string{"-dump", "-n", "1"}, "trace foo: 3 references"},
		{[]string{"-info"}, "name: foo\n"},
		{[]string{"-out", filepath.Join(dir, "foo.sctz")}, "trace foo: 3 references"},
		{[]string{"-out", filepath.Join(dir, "foo.trace")}, "trace foo: 3 references"},
	} {
		out, errb, code := runTool(t, append([]string{"-in", path}, c.args...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, errb)
		}
		if !strings.Contains(out, c.want) {
			t.Fatalf("%v: missing %q:\n%s", c.args, c.want, out)
		}
	}
	// The written files carry the name too.
	for _, written := range []string{"foo.sctz", "foo.trace"} {
		out, errb, code := runTool(t, "-in", filepath.Join(dir, written), "-info")
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", written, code, errb)
		}
		if !strings.Contains(out, "name: foo\n") {
			t.Fatalf("%s lost the name:\n%s", written, out)
		}
	}
}

// TestConvertPipeline drives conversion end to end: generate a workload,
// save it compressed by extension, convert sctz→flat→din→sctz and din→flat
// with -in/-out, and check -info/-verify report consistent record counts
// throughout.
func TestConvertPipeline(t *testing.T) {
	dir := t.TempDir()
	sctzPath := filepath.Join(dir, "w.sctz")
	out, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-out", sctzPath)
	if code != 0 {
		t.Fatalf("generate: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "(sctz)") {
		t.Fatalf("extension did not pick sctz:\n%s", out)
	}

	flatPath := filepath.Join(dir, "w.trace")
	if out, errb, code = runTool(t, "-in", sctzPath, "-out", flatPath); code != 0 {
		t.Fatalf("convert to flat: exit %d: %s", code, errb)
	}
	dinPath := filepath.Join(dir, "w.din")
	if _, errb, code = runTool(t, "-in", flatPath, "-out", dinPath); code != 0 {
		t.Fatalf("convert to din: exit %d: %s", code, errb)
	}
	backPath := filepath.Join(dir, "back.sctz")
	if _, errb, code = runTool(t, "-in", dinPath, "-out", backPath); code != 0 {
		t.Fatalf("convert din back to sctz: exit %d: %s", code, errb)
	}
	// Din announces no length, so a flat output (whose header carries the
	// count) reads it whole first.
	dinFlatPath := filepath.Join(dir, "back.trace")
	if _, errb, code = runTool(t, "-in", dinPath, "-out", dinFlatPath); code != 0 {
		t.Fatalf("convert din to flat: exit %d: %s", code, errb)
	}

	infoOut, errb, code := runTool(t, "-in", sctzPath, "-info")
	if code != 0 {
		t.Fatalf("info: exit %d: %s", code, errb)
	}
	for _, want := range []string{"format: sctz", "name: MV", "chunks:", "compression"} {
		if !strings.Contains(infoOut, want) {
			t.Fatalf("info missing %q:\n%s", want, infoOut)
		}
	}

	verifyOut, errb, code := runTool(t, "-in", backPath, "-verify")
	if code != 0 {
		t.Fatalf("verify: exit %d: %s", code, errb)
	}
	if !strings.Contains(verifyOut, "verify OK") {
		t.Fatalf("verify output:\n%s", verifyOut)
	}

	// The flat and round-tripped record counts must agree.
	recordsOf := func(infoText string) string {
		for _, line := range strings.Split(infoText, "\n") {
			if strings.HasPrefix(line, "records: ") {
				return line
			}
		}
		return ""
	}
	for _, p := range []string{backPath, dinFlatPath} {
		info2, errb, code := runTool(t, "-in", p, "-info")
		if code != 0 {
			t.Fatalf("info %s: exit %d: %s", p, code, errb)
		}
		if recordsOf(infoOut) == "" || recordsOf(infoOut) != recordsOf(info2) {
			t.Fatalf("record counts diverged:\n%s\nvs\n%s", infoOut, info2)
		}
	}
}

// TestVerifyCorrupt: a corrupted compressed stream fails -verify.
func TestVerifyCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.sctz")
	if _, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-out", path); code != 0 {
		t.Fatalf("generate: exit %d: %s", code, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errb, code := runTool(t, "-in", path, "-verify"); code == 0 {
		t.Fatalf("corrupt stream passed -verify: %s", errb)
	}
	// A conversion that fails mid-stream leaves no partial output.
	out := filepath.Join(dir, "w.din")
	if _, errb, code := runTool(t, "-in", path, "-out", out); code == 0 {
		t.Fatalf("corrupt stream converted: %s", errb)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("partial output left behind: %v", err)
	}
}

// TestInPlaceRewrite: an -out naming the -in file is read whole before it
// is truncated, so a trace converts in place.
func TestInPlaceRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace")
	out, errb, code := runTool(t, "-workload", "MV", "-scale", "test", "-out", path)
	if code != 0 {
		t.Fatalf("generate: exit %d: %s", code, errb)
	}
	out2, errb, code := runTool(t, "-in", path, "-out", path, "-format", "sctz")
	if code != 0 {
		t.Fatalf("rewrite: exit %d: %s", code, errb)
	}
	if first := strings.Split(out, "\n")[0]; !strings.HasPrefix(out2, first+"\n") {
		t.Fatalf("rewrite changed the trace: %q, then %q", first, out2)
	}
	info, errb, code := runTool(t, "-in", path, "-verify")
	if code != 0 || !strings.Contains(info, "chunks") {
		t.Fatalf("rewritten file is not a healthy sctz stream (exit %d): %s%s", code, info, errb)
	}
}

// TestSynth: the synthetic generator streams a deterministic sctz trace
// that verifies clean.
func TestSynth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "synth.sctz")
	out, errb, code := runTool(t, "-synth", "20000", "-out", path)
	if code != 0 {
		t.Fatalf("synth: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "synthesized") || !strings.Contains(out, "20000 records") {
		t.Fatalf("synth output:\n%s", out)
	}
	verifyOut, errb, code := runTool(t, "-in", path, "-verify")
	if code != 0 {
		t.Fatalf("verify: exit %d: %s", code, errb)
	}
	if !strings.Contains(verifyOut, "verify OK: 20000 records") {
		t.Fatalf("verify output:\n%s", verifyOut)
	}
	// Determinism: same seed, same bytes.
	path2 := filepath.Join(dir, "synth2.sctz")
	if _, errb, code := runTool(t, "-synth", "20000", "-out", path2); code != 0 {
		t.Fatalf("synth2: exit %d: %s", code, errb)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("synthetic traces with equal seeds differ")
	}
}
