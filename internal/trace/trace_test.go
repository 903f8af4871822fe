package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	return &Trace{
		Name: "sample",
		Records: []Record{
			{Addr: 0x1000, RefID: 1, Gap: 0, Size: 8, Temporal: true},
			{Addr: 0x1008, RefID: 1, Gap: 2, Size: 8, Spatial: true},
			{Addr: 0x2000, RefID: 2, Gap: 3, Size: 4, Write: true},
			{Addr: 0x3000, RefID: 3, Gap: 25, Size: 8, Temporal: true, Spatial: true},
		},
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Addr: 0x10, Size: 8, Write: true, Temporal: true}
	s := r.String()
	for _, want := range []string{"W", "0x00000010", "T"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	r2 := Record{Addr: 0x10, Size: 8, Spatial: true}
	if !strings.Contains(r2.String(), "R") || !strings.Contains(r2.String(), "S") {
		t.Fatalf("String() = %q", r2.String())
	}
}

func TestCountTags(t *testing.T) {
	c := sample().CountTags()
	if c.None != 1 || c.SpatialOnly != 1 || c.TemporalOnly != 1 || c.Both != 1 {
		t.Fatalf("CountTags = %+v", c)
	}
	if c.Total() != 4 {
		t.Fatalf("Total = %d", c.Total())
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewAnyReader(&buf, "any"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip: name=%q records=%d", got.Name, len(got.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Name: ""}); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewAnyReader(&buf, "any"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "" {
		t.Fatalf("empty trace round trip: %+v", got)
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := readAll(NewReader(strings.NewReader("NOPE\x01\x00\x00\x00")))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestReadBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // corrupt the version
	_, err := readAll(NewAnyReader(bytes.NewReader(b), "any"))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{3, 7, 10, len(b) - 5} {
		if _, err := readAll(NewReader(bytes.NewReader(b[:cut]))); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, flags []byte) bool {
		tr := &Trace{Name: "prop"}
		for i, a := range addrs {
			var fl byte
			if i < len(flags) {
				fl = flags[i]
			}
			tr.Append(Record{
				Addr:     a,
				RefID:    uint32(i),
				Gap:      fl % 26,
				Size:     8,
				Write:    fl&1 != 0,
				Temporal: fl&2 != 0,
				Spatial:  fl&4 != 0,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := readAll(NewAnyReader(&buf, "any"))
		if err != nil || got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteNameTooLong(t *testing.T) {
	tr := &Trace{Name: strings.Repeat("x", 70000)}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err == nil {
		t.Fatal("expected error for oversized name")
	}
}

func TestVirtualHintRoundTrip(t *testing.T) {
	tr := &Trace{Name: "hints"}
	for code := uint8(0); code < 4; code++ {
		tr.Append(Record{Addr: uint64(code) * 64, Size: 8, Spatial: true, VirtualHint: code})
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewAnyReader(&buf, "any"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Records {
		if r.VirtualHint != uint8(i) {
			t.Fatalf("record %d hint = %d", i, r.VirtualHint)
		}
	}
}

func TestReadVersion1(t *testing.T) {
	// A v1 stream is byte-identical except for the version field and the
	// absence of hint bits; it must still load.
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 1 // pretend version 1
	got, err := readAll(NewAnyReader(bytes.NewReader(b), "any"))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	if got.Len() != sample().Len() {
		t.Fatal("v1 stream truncated")
	}
}

func TestStreamReader(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "sample" || r.Len() != tr.Len() {
		t.Fatalf("header: name=%q len=%d", r.Name(), r.Len())
	}
	one := make([]Record, 1)
	for i := range tr.Records {
		n, err := r.ReadBatch(one)
		if n != 1 || err != nil {
			t.Fatalf("record %d: ReadBatch = (%d, %v)", i, n, err)
		}
		if one[0] != tr.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if n, err := r.ReadBatch(one); n != 0 || err != io.EOF {
		t.Fatalf("want (0, io.EOF) after the last record, got (%d, %v)", n, err)
	}
	// EOF is sticky.
	if n, err := r.ReadBatch(one); n != 0 || err != io.EOF {
		t.Fatal("EOF must be sticky")
	}
}

func TestStreamReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r, err := NewReader(bytes.NewReader(b[:len(b)-5]))
	if err != nil {
		t.Fatal(err)
	}
	one := make([]Record, 1)
	var lastErr error
	decoded := 0
	for i := 0; i < 10; i++ {
		var n int
		n, lastErr = r.ReadBatch(one)
		decoded += n
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body must surface ErrUnexpectedEOF, got %v", lastErr)
	}
	// The last record lost its tail: it starts at the header's end plus
	// three whole records.
	if decoded != 3 {
		t.Fatalf("decoded %d complete records before the truncation, want 3", decoded)
	}
	if want := fmt.Sprintf("byte offset %d", len(b)-5); !strings.Contains(lastErr.Error(), want) {
		t.Fatalf("error %q does not name the truncation (%s)", lastErr, want)
	}
}

// readAll materialises a whole stream through the decoder a constructor
// returned, or passes on the constructor's error.
func readAll(r BatchReader, err error) (*Trace, error) {
	if err != nil {
		return nil, err
	}
	return ReadAll(r)
}
