package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenFileFormats proves OpenFile decodes the same records from a
// trace regardless of the on-disk format: flat (mmapped), SCTZ (mmapped),
// plain din, and gzipped din.
func TestOpenFileFormats(t *testing.T) {
	dir := t.TempDir()
	tr := randomTrace(5, 10000)
	// Din carries only addr/write/gap/size, so build the expectation by
	// round-tripping through the din text once.
	var dinBuf bytes.Buffer
	if _, err := CopyDin(&dinBuf, tr.Reader()); err != nil {
		t.Fatal(err)
	}

	flatPath := filepath.Join(dir, "t.sctr")
	var flat bytes.Buffer
	if err := Write(&flat, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flatPath, flat.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	sctzPath := filepath.Join(dir, "t.sctz")
	var sctz bytes.Buffer
	if err := WriteSCTZ(&sctz, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sctzPath, sctz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dinPath := filepath.Join(dir, "t.din")
	if err := os.WriteFile(dinPath, dinBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dinGzPath := filepath.Join(dir, "t.din.gz")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(dinBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dinGzPath, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	read := func(path string) (*Trace, bool) {
		t.Helper()
		f, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got, err := ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		return got, f.Mapped()
	}

	fromFlat, flatMapped := read(flatPath)
	fromSCTZ, sctzMapped := read(sctzPath)
	if mmapSupported && (!flatMapped || !sctzMapped) {
		t.Errorf("binary formats not mapped: flat %v, sctz %v", flatMapped, sctzMapped)
	}
	if len(fromFlat.Records) != len(tr.Records) {
		t.Fatalf("flat read %d records, want %d", len(fromFlat.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if fromFlat.Records[i] != tr.Records[i] {
			t.Fatalf("flat record %d mismatch", i)
		}
		if fromSCTZ.Records[i] != tr.Records[i] {
			t.Fatalf("sctz record %d mismatch", i)
		}
	}

	fromDin, dinMapped := read(dinPath)
	fromDinGz, _ := read(dinGzPath)
	if dinMapped {
		t.Error("din input unexpectedly mapped")
	}
	if fromDin.Name != "t" || fromDinGz.Name != "t" {
		t.Errorf("din names %q, %q, want \"t\"", fromDin.Name, fromDinGz.Name)
	}
	if len(fromDin.Records) != len(fromDinGz.Records) {
		t.Fatalf("din %d records, gzipped %d", len(fromDin.Records), len(fromDinGz.Records))
	}
	for i := range fromDin.Records {
		if fromDin.Records[i] != fromDinGz.Records[i] {
			t.Fatalf("din record %d mismatch vs gzip", i)
		}
	}
}

// TestNewAnyReaderSniff pins the dispatch: binary magics select their
// decoders, anything else is din (including a stream too short to sniff).
func TestNewAnyReaderSniff(t *testing.T) {
	tr := randomTrace(6, 500)
	var flat, sctz bytes.Buffer
	if err := Write(&flat, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteSCTZ(&sctz, tr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		wantN int
	}{
		{"flat", flat.Bytes(), len(tr.Records)},
		{"sctz", sctz.Bytes(), len(tr.Records)},
		{"din", []byte("0 1000\n1 2000\n"), 2},
		{"short", []byte("0 8"), 1},
		{"empty", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewAnyReader(bytes.NewReader(tc.data), "x")
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Records) != tc.wantN {
				t.Fatalf("decoded %d records, want %d", len(got.Records), tc.wantN)
			}
		})
	}
}

// TestOpenFileErrors: missing files and corrupt binary headers surface
// errors naming the path.
func TestOpenFileErrors(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.sctz")
	if err := os.WriteFile(bad, []byte("SCTZ\xff\xff"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(bad)
	if err == nil {
		got, rerr := ReadAll(f)
		f.Close()
		if rerr == nil {
			t.Fatalf("corrupt sctz header decoded %d records without error", len(got.Records))
		}
	} else if want := fmt.Sprintf("%s:", bad); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %v does not name the path", err)
	}
}
