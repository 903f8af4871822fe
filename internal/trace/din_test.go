package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"
)

func TestReadDin(t *testing.T) {
	src := `
# a comment
0 1000
1 0x1008
2 4000
0 2000
`
	tr, err := readAll(NewDinReader(strings.NewReader(src), "din"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 { // the ifetch is skipped
		t.Fatalf("records = %d, want 3", tr.Len())
	}
	if tr.Records[0].Addr != 0x1000 || tr.Records[0].Write {
		t.Fatalf("record 0 = %+v", tr.Records[0])
	}
	if tr.Records[1].Addr != 0x1008 || !tr.Records[1].Write {
		t.Fatalf("record 1 = %+v", tr.Records[1])
	}
	if tr.Records[0].Gap != 0 || tr.Records[1].Gap != 1 {
		t.Fatal("gap assignment wrong")
	}
	if c := tr.CountTags(); c.None != 3 {
		t.Fatal("din imports must carry no tags")
	}
}

func TestReadDinErrors(t *testing.T) {
	cases := []string{
		"0\n",      // missing address
		"x 1000\n", // bad label
		"7 1000\n", // unknown label
		"0 zzzz\n", // bad address
	}
	for _, src := range cases {
		if _, err := readAll(NewDinReader(strings.NewReader(src), "bad")); err == nil {
			t.Fatalf("input %q should fail", src)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Fatalf("error %q lacks line number", err)
		}
	}
}

func TestDinRoundTrip(t *testing.T) {
	tr := &Trace{Name: "rt", Records: []Record{
		{Addr: 0x10, Size: 8},
		{Addr: 0x20, Size: 8, Write: true, Gap: 2},
		{Addr: 0x30, Size: 8, SoftwarePrefetch: true}, // dropped on export
	}}
	var buf bytes.Buffer
	if _, err := CopyDin(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewDinReader(&buf, "rt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip records = %d, want 2", got.Len())
	}
	if got.Records[0].Addr != 0x10 || got.Records[1].Addr != 0x20 || !got.Records[1].Write {
		t.Fatalf("round trip lost data: %+v", got.Records)
	}
}

// TestDinGzip proves gzip-compressed din input is sniffed and decompressed
// transparently, producing the same records as the plain text.
func TestDinGzip(t *testing.T) {
	var text bytes.Buffer
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&text, "%d %x\n", i%3, 0x1000+i*8)
	}
	plain, err := readAll(NewDinReader(bytes.NewReader(text.Bytes()), "gz"))
	if err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(text.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zipped, err := readAll(NewDinReader(bytes.NewReader(zbuf.Bytes()), "gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Records) != len(zipped.Records) {
		t.Fatalf("plain %d records, gzip %d", len(plain.Records), len(zipped.Records))
	}
	for i := range plain.Records {
		if plain.Records[i] != zipped.Records[i] {
			t.Fatalf("record %d: plain %+v, gzip %+v", i, plain.Records[i], zipped.Records[i])
		}
	}

	// A truncated gzip stream must error, not silently shorten the trace.
	trunc := zbuf.Bytes()[:zbuf.Len()-5]
	if _, err := readAll(NewDinReader(bytes.NewReader(trunc), "gz")); err == nil {
		t.Fatal("truncated gzip din input did not error")
	}
}

// TestDinReaderBatches proves the streaming reader honors the BatchReader
// contract: unknown length, batch-bounded parsing, io.EOF after the end,
// and a sticky error once parsing fails.
func TestDinReaderBatches(t *testing.T) {
	var text bytes.Buffer
	const want = 3000
	for i := 0; i < want; i++ {
		fmt.Fprintf(&text, "1 %x\n", i)
	}
	text.WriteString("bogus line\n")
	r, err := NewDinReader(bytes.NewReader(text.Bytes()), "b")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != -1 {
		t.Fatalf("Len() = %d, want -1", r.Len())
	}
	dst := make([]Record, 1024)
	got := 0
	var firstErr error
	for firstErr == nil {
		n, err := r.ReadBatch(dst)
		got += n
		firstErr = err
	}
	if got != want {
		t.Fatalf("decoded %d records before the bad line, want %d", got, want)
	}
	if firstErr == nil || !strings.Contains(firstErr.Error(), "din line 3001") {
		t.Fatalf("error %v does not name the bad line", firstErr)
	}
	if _, err := r.ReadBatch(dst); err != firstErr {
		t.Fatalf("sticky error not preserved: %v vs %v", err, firstErr)
	}
}
