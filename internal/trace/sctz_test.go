package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// sctzBytes encodes t with WriteSCTZ.
func sctzBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSCTZ(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireIdentical fails unless got reproduces want record for record.
func requireIdentical(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("name: got %q want %q", got.Name, want.Name)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records: got %d want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestSCTZRoundTripAdversarial drives the compressed codec over random
// traces that defeat every structural assumption the format exploits —
// full-range address jumps, shuffled refIDs, tag garbage — across sizes
// straddling the chunk boundary.
func TestSCTZRoundTripAdversarial(t *testing.T) {
	sizes := []int{0, 1, 2, 17, sctzChunkRecords - 1, sctzChunkRecords, sctzChunkRecords + 1, 3*sctzChunkRecords + 129}
	for i, n := range sizes {
		tr := randomTrace(int64(100+i), n)
		data := sctzBytes(t, tr)
		got, err := readAll(NewAnyReader(bytes.NewReader(data), "any"))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		requireIdentical(t, tr, got)
	}
}

// TestSCTZRoundTripWideRefIDs covers sites past the tracked-site cap: such
// records must still round-trip exactly, they just compress worse.
func TestSCTZRoundTripWideRefIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := &Trace{Name: "wide"}
	for i := 0; i < 3000; i++ {
		tr.Append(Record{
			Addr:  rng.Uint64(),
			RefID: rng.Uint32(), // mostly past sctzSiteCap
			Gap:   uint8(rng.Intn(256)),
			Size:  uint8(rng.Intn(256)),
			Write: rng.Intn(2) == 0,
		})
	}
	got, err := readAll(NewAnyReader(bytes.NewReader(sctzBytes(t, tr)), "any"))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, tr, got)
}

// TestSCTZStreamWriter exercises the unknown-length path: irregular Write
// slices, Len() == -1 on the reader, and exact reproduction.
func TestSCTZStreamWriter(t *testing.T) {
	tr := randomTrace(42, 2*sctzChunkRecords+77)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, "streamed")
	if err != nil {
		t.Fatal(err)
	}
	for off, step := 0, 1; off < len(tr.Records); step = step*3 + 1 {
		end := min(off+step, len(tr.Records))
		if err := w.Write(tr.Records[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(); got != uint64(len(tr.Records)) {
		t.Fatalf("Count: got %d want %d", got, len(tr.Records))
	}
	r, err := NewStreamReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != -1 {
		t.Fatalf("Len of unknown-total stream: got %d want -1", r.Len())
	}
	if r.Name() != "streamed" {
		t.Fatalf("Name: got %q", r.Name())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got.Name = tr.Name
	requireIdentical(t, tr, got)
	if r.Chunks() == 0 {
		t.Fatal("Chunks not counted")
	}
}

// TestSCTZReadBatchSizes drains one stream with destination sizes that do
// not divide the chunk size, so batches repeatedly straddle chunk
// boundaries.
func TestSCTZReadBatchSizes(t *testing.T) {
	tr := randomTrace(9, 2*sctzChunkRecords+513)
	data := sctzBytes(t, tr)
	for _, size := range []int{1, 7, 1000, BatchSize, 3 * sctzChunkRecords} {
		r, err := NewStreamReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != len(tr.Records) {
			t.Fatalf("Len: got %d want %d", r.Len(), len(tr.Records))
		}
		var out []Record
		dst := make([]Record, size)
		for {
			n, err := r.ReadBatch(dst)
			out = append(out, dst[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
		}
		requireIdentical(t, tr, &Trace{Name: tr.Name, Records: out})
		if _, err := r.ReadBatch(dst); err != io.EOF {
			t.Fatalf("post-EOF ReadBatch: %v", err)
		}
	}
}

// TestSCTZEmptyTrace round-trips a zero-record trace.
func TestSCTZEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty"}
	got, err := readAll(NewAnyReader(bytes.NewReader(sctzBytes(t, tr)), "any"))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, tr, got)
}

// TestSCTZTruncation cuts a healthy stream at every byte and requires a
// clean error — never a panic, never a phantom success (except at cuts
// that happen to end exactly at the final flush, which cannot exist here
// because the end marker is mandatory).
func TestSCTZTruncation(t *testing.T) {
	tr := randomTrace(3, 600)
	data := sctzBytes(t, tr)
	for cut := 0; cut < len(data); cut++ {
		_, err := readAll(NewStreamReader(bytes.NewReader(data[:cut])))
		if err == nil {
			t.Fatalf("cut at %d of %d: truncated stream accepted", cut, len(data))
		}
	}
}

// TestSCTZChecksumFlip flips single bytes across the stream body: every
// flip that the reader accepts must still decode into some structurally
// valid trace, and flips inside plane bytes must be caught by the plane
// CRCs with an error naming the mismatch.
func TestSCTZChecksumFlip(t *testing.T) {
	tr := randomTrace(5, 300)
	data := sctzBytes(t, tr)
	headerLen := 4 + 2 + 2 + len(tr.Name) + 8
	flips := 0
	for off := headerLen + 8 + 8; off < len(data)-8; off += 11 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, err := readAll(NewStreamReader(bytes.NewReader(mut)))
		if err == nil {
			continue // flipped a stored CRC and its plane consistently? impossible; a plane byte flip may land in slack
		}
		if strings.Contains(err.Error(), "checksum mismatch") {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("no byte flip tripped a plane checksum")
	}
}

// TestSCTZBudget proves the cumulative record budget is enforced across
// chunks: a stream under the format's own limits but over the reader's
// budget fails with ErrTooLarge partway in, not after unbounded work.
func TestSCTZBudget(t *testing.T) {
	tr := randomTrace(11, 3*sctzChunkRecords)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, "over")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tr.Records); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewStreamReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.budget = 2 * sctzChunkRecords // the third chunk must trip it
	dst := make([]Record, BatchSize)
	var n int
	for {
		m, err := r.ReadBatch(dst)
		n += m
		if err != nil {
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("want ErrTooLarge, got %v", err)
			}
			break
		}
	}
	if n != 2*sctzChunkRecords {
		t.Fatalf("decoded %d records before the budget tripped, want %d", n, 2*sctzChunkRecords)
	}
	// The header-announced total is checked against MaxRecords up front.
	huge := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint64(huge[4+2+2+len("over"):], MaxRecords+1)
	if _, err := NewStreamReaderBytes(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized header total: want ErrTooLarge, got %v", err)
	}
}

// TestSCTZFraming hand-corrupts specific framing invariants.
func TestSCTZFraming(t *testing.T) {
	tr := randomTrace(13, 100)
	data := sctzBytes(t, tr)
	headerLen := 4 + 2 + 2 + len(tr.Name) + 8

	t.Run("end marker with payload", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], 99)
		if _, err := readAll(NewStreamReader(bytes.NewReader(mut))); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("missing end marker", func(t *testing.T) {
		mut := data[:len(data)-8]
		if _, err := readAll(NewStreamReader(bytes.NewReader(mut))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("short total", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(mut[headerLen-8:headerLen], uint64(len(tr.Records))+1)
		_, err := readAll(NewStreamReader(bytes.NewReader(mut)))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "announced") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("records beyond total", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(mut[headerLen-8:headerLen], uint64(len(tr.Records))-1)
		_, err := readAll(NewStreamReader(bytes.NewReader(mut)))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "beyond the announced total") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("oversized chunk count", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(mut[headerLen:headerLen+4], maxSCTZChunkRecords+1)
		if _, err := readAll(NewStreamReader(bytes.NewReader(mut))); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint16(mut[4:6], 9)
		if _, err := readAll(NewStreamReader(bytes.NewReader(mut))); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestSCTZSniffedRead proves NewAnyReader dispatches on the magic: the
// same call reads flat and compressed streams, and an unknown magic is
// not misparsed as flat or SCTZ records — the sniffer hands it to the din
// parser, which rejects it by line, while the flat decoder rejects it as
// ErrBadFormat.
func TestSCTZSniffedRead(t *testing.T) {
	tr := randomTrace(21, 500)
	var flat bytes.Buffer
	if err := Write(&flat, tr); err != nil {
		t.Fatal(err)
	}
	fromFlat, err := readAll(NewAnyReader(bytes.NewReader(flat.Bytes()), "any"))
	if err != nil {
		t.Fatal(err)
	}
	fromSCTZ, err := readAll(NewAnyReader(bytes.NewReader(sctzBytes(t, tr)), "any"))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fromFlat, fromSCTZ)
	if _, err := readAll(NewAnyReader(bytes.NewReader([]byte("XXXX????")), "any")); err == nil || !strings.Contains(err.Error(), "din line 1") {
		t.Fatalf("unknown magic through the sniffer: got %v", err)
	}
	if _, err := readAll(NewReader(bytes.NewReader([]byte("XXXX????")))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("unknown magic through the flat decoder: got %v", err)
	}
}

// TestSCTZStreamingSource runs the reader over a bufio-backed source whose
// chunks cannot be borrowed in one peek (payload larger than the buffered
// window), covering the owned-copy fallback.
func TestSCTZStreamingSource(t *testing.T) {
	// Random records escape almost always: ~16 bytes per record pushes a
	// 4096-record chunk payload past the reader's 64 KiB bufio window.
	tr := randomTrace(31, 2*sctzChunkRecords+100)
	data := sctzBytes(t, tr)
	r, err := NewStreamReader(&dribbleReader{data: data})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, tr, got)
}

// dribbleReader serves its bytes in small odd-sized reads, the worst case
// for any parser that assumes one Read fills its request.
type dribbleReader struct {
	data []byte
	pos  int
	step int
}

func (s *dribbleReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	s.step = s.step%7 + 1
	n := min(min(s.step, len(p)), len(s.data)-s.pos)
	copy(p, s.data[s.pos:s.pos+n])
	s.pos += n
	return n, nil
}

// TestStoreRecordConvention pins the little-endian word-store fast path to
// the portable field-wise definition of the packed-record convention.
func TestStoreRecordConvention(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		w0 := rng.Uint64()
		// Field bytes hold real values; bool bytes stay 0/1 and the
		// convention's spare bits stay zero, as every encoder of packed
		// words guarantees.
		w1 := rng.Uint64()&0x0000_ffff_ffff_ffff | uint64(rng.Intn(2))<<48 | uint64(rng.Intn(2))<<56
		w2 := uint64(rng.Intn(2)) | uint64(rng.Intn(4))<<8 | uint64(rng.Intn(2))<<16
		var fast, portable Record
		storeRecord(&fast, w0, w1, w2)
		storeRecordPortable(&portable, w0, w1, w2)
		if fast != portable {
			t.Fatalf("packed words %#x %#x %#x: fast %+v portable %+v", w0, w1, w2, fast, portable)
		}
	}
}
