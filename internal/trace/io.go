package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Binary trace format:
//
//	header:  magic "SCTR" | version uint16 | name length uint16 | name bytes |
//	         record count uint64
//	record:  addr uint64 | refID uint32 | gap uint8 | size uint8 | flags uint8
//
// Flags bit layout: bit0 = write, bit1 = temporal, bit2 = spatial,
// bits 3-4 = virtual-line length hint (format v2; always 0 in v1).
// All integers are little-endian. The format is deliberately flat so that a
// multi-million-entry trace streams at memory bandwidth.

const (
	magic = "SCTR"
	// formatVersion 2 added the 2-bit virtual-line hint in flags bits
	// 3-4; version-1 streams (hint always 0) remain readable.
	formatVersion    = 2
	minReadVersion   = 1
	virtualHintShift = 3
	virtualHintMask  = 0b11 << virtualHintShift

	flagWrite      = 1 << 0
	flagTemporal   = 1 << 1
	flagSpatial    = 1 << 2
	flagSWPrefetch = 1 << 5

	recordSize = 8 + 4 + 1 + 1 + 1
)

// MaxRecords is the record-count budget a stream header may announce.
// Corrupt or hostile headers routinely carry absurd counts; rejecting them
// up front bounds both memory (ReadAll's preallocation) and the time a
// streaming consumer can be made to spend before hitting the inevitable
// truncation error.
const MaxRecords = 1 << 31

// ErrBadFormat is returned when a trace stream does not start with the
// expected magic bytes or uses an unsupported version.
var ErrBadFormat = errors.New("trace: bad format")

// ErrTooLarge is returned when a stream header announces more records than
// the MaxRecords budget.
var ErrTooLarge = errors.New("trace: stream exceeds record budget")

// Write serialises the trace to w in the flat format: the whole-trace
// form of CopyFlat.
func Write(w io.Writer, t *Trace) error {
	_, err := CopyFlat(w, t.Reader())
	return err
}

func packFlags(r Record) byte {
	var f byte
	if r.Write {
		f |= flagWrite
	}
	if r.Temporal {
		f |= flagTemporal
	}
	if r.Spatial {
		f |= flagSpatial
	}
	f |= (r.VirtualHint & 0b11) << virtualHintShift
	if r.SoftwarePrefetch {
		f |= flagSWPrefetch
	}
	return f
}

// peekReader is the buffered-source abstraction Reader decodes from: a
// bufio.Reader for streaming sources (NewReader), a bytesPeeker serving a
// resident byte slice with no staging copy (NewReaderBytes).
type peekReader interface {
	io.Reader
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// bytesPeeker implements peekReader directly over an in-memory slice. Peek
// returns sub-slices of the original data, so ReadBatch decodes with zero
// copies between the serialised bytes and the Record structs.
type bytesPeeker struct {
	data []byte
	pos  int
}

func (p *bytesPeeker) Read(b []byte) (int, error) {
	n := copy(b, p.data[p.pos:])
	p.pos += n
	if n == 0 && len(b) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (p *bytesPeeker) Peek(n int) ([]byte, error) {
	rest := p.data[p.pos:]
	if len(rest) < n {
		return rest, io.EOF
	}
	return rest[:n], nil
}

func (p *bytesPeeker) Discard(n int) (int, error) {
	if rest := len(p.data) - p.pos; n > rest {
		p.pos = len(p.data)
		return rest, io.EOF
	}
	p.pos += n
	return n, nil
}

// Reader streams a serialised flat trace batch by batch, so multi-gigabyte
// traces can be simulated without holding them in memory. Create one with
// NewReader (any source) or NewReaderBytes (resident data, no buffer
// copies) and pull records in chunks with ReadBatch until io.EOF. Errors
// carry the byte offset into the stream at which the problem was found.
type Reader struct {
	br        peekReader
	name      string
	remaining uint64
	total     uint64
	offset    int64 // bytes consumed from the underlying stream
}

// NewReader parses the stream header and positions the reader at the first
// record. Streams announcing more than MaxRecords records are rejected
// with ErrTooLarge.
func NewReader(r io.Reader) (*Reader, error) {
	return newReader(bufio.NewReaderSize(r, 1<<16))
}

// NewReaderBytes is NewReader for a trace already resident in memory: the
// records are decoded straight from data with no intermediate buffer, the
// fastest way to drive core.Run (used by the perf harness, where the
// trace bytes are pinned in RAM so disk speed cannot pollute the kernel
// measurement).
func NewReaderBytes(data []byte) (*Reader, error) {
	return newReader(&bytesPeeker{data: data})
}

func newReader(br peekReader) (*Reader, error) {
	offset := int64(0)
	head := make([]byte, len(magic)+4)
	if n, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header at byte offset %d: %w", offset+int64(n), err)
	}
	offset += int64(len(head))
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic at byte offset 0", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v < minReadVersion || v > formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d at byte offset 4", ErrBadFormat, v)
	}
	nameLen := int(binary.LittleEndian.Uint16(head[6:8]))
	name := make([]byte, nameLen)
	if n, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name at byte offset %d: %w", offset+int64(n), err)
	}
	offset += int64(nameLen)
	var cnt [8]byte
	if n, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count at byte offset %d: %w", offset+int64(n), err)
	}
	offset += int64(len(cnt))
	n := binary.LittleEndian.Uint64(cnt[:])
	if n > MaxRecords {
		return nil, fmt.Errorf("%w: header at byte offset %d announces %d records (budget %d)",
			ErrTooLarge, offset-int64(len(cnt)), n, uint64(MaxRecords))
	}
	return &Reader{br: br, name: string(name), remaining: n, total: n, offset: offset}, nil
}

// Name returns the trace name from the header.
func (r *Reader) Name() string { return r.name }

// Len returns the total number of records announced by the header.
func (r *Reader) Len() int { return int(r.total) }

// Offset returns the number of bytes consumed from the stream so far.
func (r *Reader) Offset() int64 { return r.offset }

// flagProto maps a record's flags byte to a Record with the five
// flag-derived fields prefilled, so the ReadBatch decode loop unpacks the
// byte with a single table load (6 KiB, L1-resident) instead of five
// mask-and-branch sequences.
var flagProto = func() (t [256]Record) {
	for f := 0; f < 256; f++ {
		t[f] = Record{
			Write:            f&flagWrite != 0,
			Temporal:         f&flagTemporal != 0,
			Spatial:          f&flagSpatial != 0,
			VirtualHint:      uint8(f&virtualHintMask) >> virtualHintShift,
			SoftwarePrefetch: f&flagSWPrefetch != 0,
		}
	}
	return t
}()

// BatchSize is the record count of the pooled batches handed out by
// GetBatch, and the recommended chunk size for ReadBatch: big enough to
// amortise the per-call overhead to well under a nanosecond per record,
// small enough (2048 records, ~64 KiB decoded) to stay cache-resident.
const BatchSize = 2048

// batchPool recycles ReadBatch destination slices so that Each, the one
// batch loop, performs no per-chunk allocations in steady state.
// Pointers-to-slice avoid the allocation that storing a bare slice header
// in an interface would cost.
var batchPool = sync.Pool{
	New: func() interface{} {
		b := make([]Record, BatchSize)
		return &b
	},
}

// GetBatch returns a pooled BatchSize-record slice for use as a ReadBatch
// destination. Return it with PutBatch when done. It is exported for
// benchmark/layers.go only: every other loop over a trace is Each.
func GetBatch() *[]Record { return batchPool.Get().(*[]Record) }

// PutBatch returns a batch obtained from GetBatch to the pool. Buffers
// whose capacity diverges from the pool's BatchSize shape (nil, resliced
// to a smaller backing array, or grown past it) are dropped rather than
// recycled: a short buffer would silently shrink every later ReadBatch
// that borrows it, and an oversized one defeats the cache-residency the
// batch size was chosen for. The length is reset to the full shape so a
// recycled buffer never leaks a previous caller's n. Like GetBatch, it is
// exported for benchmark/layers.go only.
func PutBatch(b *[]Record) {
	if b == nil || cap(*b) != BatchSize {
		return
	}
	*b = (*b)[:BatchSize]
	batchPool.Put(b)
}

// Each is the one batch loop: it drains r through one pooled batch,
// handing fn each chunk of records in order. A chunk is valid only
// during the call, as with bufio.Scanner.Bytes: the batch is reused by
// the next read, so fn copies what it keeps. ctx is polled once before
// each read and its error returned as is. Records decoded together with
// a read error reach fn before that error is returned; io.EOF ends the
// loop with a nil error. An error from fn stops the loop with no further
// read and is returned as is.
func Each(ctx context.Context, r BatchReader, fn func([]Record) error) error {
	batch := GetBatch()
	defer PutBatch(batch)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, rerr := r.ReadBatch(*batch)
		if n > 0 {
			if err := fn((*batch)[:n]); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// ReadBatch decodes up to len(dst) records into dst and returns the number
// decoded, which may be less than len(dst) when the buffered window is
// smaller than the request (callers just loop). After the last record has
// been delivered the next call returns (0, io.EOF). A stream shorter than
// its header's count decodes the complete records present and returns
// their count together with an io.ErrUnexpectedEOF error carrying the byte
// offset of the truncation, so n > 0 and err != nil can occur together.
//
// The records are decoded straight out of the buffered reader's window
// (Peek/Discard, no staging copy) in a tight loop, which is what lets the
// streaming simulate path run allocation-free at memory bandwidth.
func (r *Reader) ReadBatch(dst []Record) (int, error) {
	if r.remaining == 0 {
		return 0, io.EOF
	}
	want := uint64(len(dst))
	if want > r.remaining {
		want = r.remaining
	}
	if want == 0 {
		return 0, nil
	}
	raw, peekErr := r.br.Peek(int(want) * recordSize)
	complete := len(raw) / recordSize
	if complete > int(want) {
		complete = int(want)
	}
	off := 0
	for i := range dst[:complete] {
		b := raw[off:]
		if len(b) < recordSize {
			break // unreachable; lets the loads below run check-free
		}
		// Two overlapping 8-byte loads cover the whole 15-byte record:
		// w1's bytes are addr[7] | refID[0:4] | gap | size | flags.
		w0 := binary.LittleEndian.Uint64(b[:8])
		w1 := binary.LittleEndian.Uint64(b[7:15])
		// Write the fields straight into dst[i] — building a local Record
		// and copying it makes the compiler bounce the struct through the
		// stack with narrow stores followed by a wide load, a
		// store-forwarding stall that doubles the whole loop's cost. The
		// prototype copy fills the five flag-derived fields in one move.
		d := &dst[i]
		*d = flagProto[w1>>56]
		d.Addr = w0
		d.RefID = uint32(w1 >> 8)
		d.Gap = uint8(w1 >> 40)
		d.Size = uint8(w1 >> 48)
		off += recordSize
	}
	if _, err := r.br.Discard(complete * recordSize); err != nil {
		// Unreachable: the bytes were just peeked.
		return complete, fmt.Errorf("trace: discarding %d decoded bytes: %w", complete*recordSize, err)
	}
	r.offset += int64(complete * recordSize)
	r.remaining -= uint64(complete)
	if complete == int(want) || peekErr == bufio.ErrBufferFull {
		return complete, nil
	}
	if peekErr == io.EOF || peekErr == io.ErrUnexpectedEOF {
		return complete, fmt.Errorf("trace: reading record %d at byte offset %d: %w",
			r.total-r.remaining, r.offset+int64(len(raw)-complete*recordSize), io.ErrUnexpectedEOF)
	}
	if peekErr != nil {
		return complete, fmt.Errorf("trace: reading record %d at byte offset %d: %w",
			r.total-r.remaining, r.offset, peekErr)
	}
	return complete, nil
}

// BatchReader is the streaming decode contract shared by every trace
// source: the flat binary Reader, the compressed StreamReader (sctz.go)
// and the din text importer (DinReader). ReadBatch follows
// Reader.ReadBatch's contract exactly — up to len(dst) records per call,
// (0, io.EOF) after the last one, n > 0 alongside a non-nil error when a
// problem surfaces mid-batch. Len reports the total record count when the
// source announced one, -1 otherwise; consumers must treat it as a
// preallocation hint, never a promise.
type BatchReader interface {
	Name() string
	Len() int
	ReadBatch(dst []Record) (int, error)
}

// ReadAll drains a BatchReader into a materialised Trace. A decoder's Len
// is a claim its input makes, so the preallocation is capped; a source
// whose Len is exact by construction (a generator) reports it with an
// ExactLen() bool method and gets its records allocated in one step.
func ReadAll(r BatchReader) (*Trace, error) {
	// Cap the preallocation: a corrupt or hostile header must not be able
	// to demand gigabytes before a single record has been read.
	prealloc := r.Len()
	if prealloc < 0 {
		prealloc = 0
	}
	if x, ok := r.(interface{ ExactLen() bool }); (!ok || !x.ExactLen()) && prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	t := &Trace{Name: r.Name(), Records: make([]Record, 0, prealloc)}
	err := Each(context.Background(), r, func(recs []Record) error {
		t.Records = append(t.Records, recs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Reader returns a BatchReader over the trace's records, so an in-memory
// trace feeds every streaming consumer (core.Run above all) through the
// same contract as a decoded file. Each ReadBatch copies the next records
// into dst; the trace itself is never modified.
func (t *Trace) Reader() BatchReader { return &sliceReader{t: t} }

// sliceReader is the BatchReader behind Trace.Reader.
type sliceReader struct {
	t   *Trace
	off int
}

func (r *sliceReader) Name() string { return r.t.Name }

func (r *sliceReader) Len() int { return len(r.t.Records) }

func (r *sliceReader) ReadBatch(dst []Record) (int, error) {
	if r.off == len(r.t.Records) {
		return 0, io.EOF
	}
	n := copy(dst, r.t.Records[r.off:])
	r.off += n
	return n, nil
}
