package cli

import (
	"os"
	"path/filepath"
	"testing"

	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// TestOpenSource: every kind of source streams the same records the
// materialising paths produce, and naming none or several is a usage error.
func TestOpenSource(t *testing.T) {
	want, err := workloads.Trace("MV", workloads.ScaleTest, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "mv.sctz")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSCTZ(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loop := filepath.Join(dir, "k.loop")
	if err := os.WriteFile(loop, []byte("program k\narray A(64)\ndo i = 0, 63\nload A(i)\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	read := func(workload, source, file string) *trace.Trace {
		t.Helper()
		src, err := OpenSource(workload, source, file, "test", 3)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		got, err := trace.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, got := range []*trace.Trace{read("MV", "", ""), read("", "", file)} {
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: %d records, fingerprint differs from workloads.Trace", got.Name, got.Len())
		}
	}
	if got := read("", loop, ""); got.Name != "k" || got.Len() != 64 {
		t.Fatalf("source: %s with %d records, want k with 64", got.Name, got.Len())
	}

	for _, c := range []struct{ workload, source, file, scale string }{
		{"", "", "", "test"},
		{"MV", loop, "", "test"},
		{"MV", "", file, "test"},
		{"", loop, file, "test"},
		{"MV", "", "", "huge"},
	} {
		if _, err := OpenSource(c.workload, c.source, c.file, c.scale, 1); !IsUsage(err) {
			t.Errorf("OpenSource(%q, %q, %q, %q) = %v, want a usage error", c.workload, c.source, c.file, c.scale, err)
		}
	}
	if _, err := OpenSource("nope", "", "", "test", 1); err == nil || IsUsage(err) {
		t.Errorf("unknown workload: %v, want a runtime error", err)
	}
}
