package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
)

func randomTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Name: "rand"}
	for i := 0; i < n; i++ {
		t.Append(Record{
			Addr:             rng.Uint64() >> 20,
			RefID:            uint32(rng.Intn(1 << 16)),
			Gap:              uint8(rng.Intn(256)),
			Size:             uint8(1 + rng.Intn(16)),
			Write:            rng.Intn(2) == 0,
			Temporal:         rng.Intn(2) == 0,
			Spatial:          rng.Intn(2) == 0,
			VirtualHint:      uint8(rng.Intn(4)),
			SoftwarePrefetch: rng.Intn(8) == 0,
		})
	}
	return t
}

// drainBatch decodes a whole stream through ReadBatch with the given
// destination size.
func drainBatch(t *testing.T, r BatchReader, batchLen int) []Record {
	t.Helper()
	var out []Record
	dst := make([]Record, batchLen)
	for {
		n, err := r.ReadBatch(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
	}
}

// TestReadBatchMatchesNext is the decode-parity test: every record the
// flat decoder returns must be bit-identical to the source record, whatever
// the destination size and however the reader was constructed. The
// in-memory Trace.Reader is held to the same records.
func TestReadBatchMatchesNext(t *testing.T) {
	tr := randomTrace(7, 10_000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want := tr.Records

	for _, batchLen := range []int{1, 7, 100, BatchSize, 3 * BatchSize} {
		for _, mk := range []struct {
			name string
			open func() (*Reader, error)
		}{
			{"NewReader", func() (*Reader, error) { return NewReader(bytes.NewReader(data)) }},
			{"NewReaderBytes", func() (*Reader, error) { return NewReaderBytes(data) }},
		} {
			r, err := mk.open()
			if err != nil {
				t.Fatal(err)
			}
			got := drainBatch(t, r, batchLen)
			if len(got) != len(want) {
				t.Fatalf("%s batchLen=%d: decoded %d records, want %d", mk.name, batchLen, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s batchLen=%d: record %d mismatch:\n got %+v\nwant %+v",
						mk.name, batchLen, i, got[i], want[i])
				}
			}
			if r.Offset() != int64(len(data)) {
				t.Errorf("%s batchLen=%d: offset %d after drain, want %d", mk.name, batchLen, r.Offset(), len(data))
			}
		}
		mem := tr.Reader()
		if got := drainBatch(t, mem, batchLen); !slices.Equal(got, want) {
			t.Fatalf("Trace.Reader batchLen=%d: records differ from the source", batchLen)
		}
		if n, err := mem.ReadBatch(make([]Record, 1)); n != 0 || err != io.EOF {
			t.Fatalf("Trace.Reader after the last record = (%d, %v), want (0, EOF)", n, err)
		}
	}
}

// TestReadBatchTruncated checks that a stream cut mid-record yields the
// complete records followed by io.ErrUnexpectedEOF.
func TestReadBatchTruncated(t *testing.T) {
	tr := randomTrace(11, 100)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Cut 40 records plus half a record off the end.
	data := buf.Bytes()
	cut := data[:len(data)-40*15-7]

	for _, mk := range []struct {
		name string
		open func() (*Reader, error)
	}{
		{"NewReader", func() (*Reader, error) { return NewReader(bytes.NewReader(cut)) }},
		{"NewReaderBytes", func() (*Reader, error) { return NewReaderBytes(cut) }},
	} {
		r, err := mk.open()
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		dst := make([]Record, 32)
		var lastErr error
		for lastErr == nil {
			var n int
			n, lastErr = r.ReadBatch(dst)
			got = append(got, dst[:n]...)
		}
		if len(got) != 59 {
			t.Errorf("%s: decoded %d complete records, want 59", mk.name, len(got))
		}
		if !errors.Is(lastErr, io.ErrUnexpectedEOF) {
			t.Errorf("%s: final error = %v, want io.ErrUnexpectedEOF", mk.name, lastErr)
		}
		for i := range got {
			if got[i] != tr.Records[i] {
				t.Fatalf("%s: record %d mismatch before truncation point", mk.name, i)
			}
		}
	}
}

// TestReadBatchEmptyDst: a zero-length destination must not consume input
// or report EOF early.
func TestReadBatchEmptyDst(t *testing.T) {
	tr := randomTrace(3, 5)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.ReadBatch(nil)
	if n != 0 || err != nil {
		t.Fatalf("ReadBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if got := drainBatch(t, r, 2); len(got) != 5 {
		t.Fatalf("decoded %d records after empty-dst call, want 5", len(got))
	}
}

// TestGetBatchShape: pooled batches always come back full-length.
func TestGetBatchShape(t *testing.T) {
	b := GetBatch()
	defer PutBatch(b)
	if len(*b) != BatchSize {
		t.Fatalf("GetBatch returned %d records, want %d", len(*b), BatchSize)
	}
}

// TestPutBatchRejectsForeignShapes: PutBatch must not poison the pool with
// buffers whose capacity diverges from the BatchSize shape — a later
// GetBatch caller would silently decode short (or blow the cache-resident
// working set). Shortened-but-same-capacity buffers are restored to full
// length instead.
func TestPutBatchRejectsForeignShapes(t *testing.T) {
	// Drain the pool into a private set so the shapes we return are the
	// only candidates GetBatch can hand back (sync.Pool has no Len, so we
	// grab a generous handful).
	held := make([]*[]Record, 32)
	for i := range held {
		//softcache:ignore poolescape holding the batches is what drains the pool; held[0] goes back shrunk and the rest at the end
		held[i] = GetBatch()
	}

	short := make([]Record, 16)
	long := make([]Record, BatchSize+1)
	PutBatch(nil)    // must not panic
	PutBatch(&short) // capacity below the pool shape: dropped
	PutBatch(&long)  // capacity above the pool shape: dropped

	shrunk := held[0]
	*shrunk = (*shrunk)[:7] // same backing array, stale length from a caller
	PutBatch(shrunk)

	for i := 0; i < len(held)+4; i++ {
		b := GetBatch()
		if cap(*b) != BatchSize || len(*b) != BatchSize {
			t.Fatalf("GetBatch returned poisoned batch: len=%d cap=%d, want %d/%d",
				len(*b), cap(*b), BatchSize, BatchSize)
		}
	}
	for _, b := range held[1:] {
		PutBatch(b)
	}
}
