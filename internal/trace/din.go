package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxDinLineBytes bounds one din input line; real din traces carry two
// short fields, so anything longer is corruption.
const maxDinLineBytes = 64 * 1024

// DinReader streams a trace in the classic Dinero ("din") format used by
// generations of cache simulators: one access per line,
//
//	<label> <address-hex>
//
// with label 0 = data read, 1 = data write, 2 = instruction fetch.
// Instruction fetches are skipped (this repository models a data cache, as
// the paper does). Addresses may carry an optional 0x prefix; blank lines
// and lines starting with '#' are ignored. Gzip-compressed input is
// detected by its magic bytes and decompressed transparently, so captured
// traces go straight from .din.gz to the simulator or to SCTZ without an
// intermediate file.
//
// DinReader implements BatchReader, parsing only as many lines as the
// destination batch holds, so arbitrarily large din captures convert and
// simulate in O(batch) memory. Len is always -1: the format does not
// announce its length. Malformed input fails with an error naming both
// the line number and the byte offset of the offending line (offsets count
// decompressed bytes when the input was gzipped); inputs with more than
// MaxRecords data references are rejected with ErrTooLarge (the same
// budget the binary readers enforce).
//
// Imported references carry no software tags — exactly the situation of a
// binary-only workload — so they exercise the Standard/Victim designs, or
// Soft with its tag gates off.
type DinReader struct {
	sc     *bufio.Scanner
	gz     *gzip.Reader // non-nil when the input was gzip-compressed
	name   string
	lineNo int
	offset int64 // byte offset of the start of the next line
	count  uint64
	first  bool
	done   bool
	err    error // sticky
}

// NewDinReader sniffs r for gzip framing and positions a streaming din
// parser at its first line. The name becomes the trace name (the din
// format has no header to carry one).
func NewDinReader(r io.Reader, name string) (*DinReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var src io.Reader = br
	var gz *gzip.Reader
	if head, _ := br.Peek(2); len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip din input at byte offset 0: %w", err)
		}
		src, gz = zr, zr
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, maxDinLineBytes), maxDinLineBytes)
	return &DinReader{sc: sc, gz: gz, name: name, first: true}, nil
}

// Name returns the name the reader was constructed with.
func (r *DinReader) Name() string { return r.name }

// Len returns -1: din input does not announce its record count.
func (r *DinReader) Len() int { return -1 }

// fail records err as the reader's sticky error and returns it.
func (r *DinReader) fail(err error) error {
	r.err = err
	return err
}

// ReadBatch parses up to len(dst) data references into dst and returns the
// number parsed; after the last line the next call returns (0, io.EOF).
func (r *DinReader) ReadBatch(dst []Record) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.done {
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return n, r.fail(fmt.Errorf("trace: reading din input near line %d (byte offset %d): %w",
					r.lineNo+1, r.offset, err))
			}
			if r.gz != nil {
				// Surface a truncated or corrupt gzip trailer; the scanner
				// swallows only clean EOFs.
				if err := r.gz.Close(); err != nil {
					return n, r.fail(fmt.Errorf("trace: closing gzip din input at byte offset %d: %w", r.offset, err))
				}
			}
			r.done = true
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		r.lineNo++
		lineStart := r.offset
		r.offset += int64(len(r.sc.Bytes())) + 1 // +1 for the newline
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return n, r.fail(fmt.Errorf("trace: din line %d (byte offset %d): want \"<label> <addr>\", got %q",
				r.lineNo, lineStart, line))
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return n, r.fail(fmt.Errorf("trace: din line %d (byte offset %d): bad label %q", r.lineNo, lineStart, fields[0]))
		}
		switch label {
		case 0, 1:
		case 2:
			continue // instruction fetch: not a data reference
		default:
			return n, r.fail(fmt.Errorf("trace: din line %d (byte offset %d): unknown label %d", r.lineNo, lineStart, label))
		}
		addrText := strings.TrimPrefix(strings.ToLower(fields[1]), "0x")
		addr, err := strconv.ParseUint(addrText, 16, 64)
		if err != nil {
			return n, r.fail(fmt.Errorf("trace: din line %d (byte offset %d): bad address %q", r.lineNo, lineStart, fields[1]))
		}
		if r.count >= MaxRecords {
			return n, r.fail(fmt.Errorf("%w: din line %d (byte offset %d): more than %d references",
				ErrTooLarge, r.lineNo, lineStart, uint64(MaxRecords)))
		}
		gap := uint8(1)
		if r.first {
			gap = 0
			r.first = false
		}
		dst[n] = Record{
			Addr:  addr,
			Size:  4, // the din format carries no size; one word
			Gap:   gap,
			Write: label == 1,
		}
		n++
		r.count++
	}
	return n, nil
}
