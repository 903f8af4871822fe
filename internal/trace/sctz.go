package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Compressed trace format (SCTZ, format version 3):
//
//	header:  magic "SCTZ" | version uint16 | name length uint16 | name bytes |
//	         record count uint64 (all-ones = not known in advance)
//	chunk:   record count uint32 | payload length uint32 | payload
//	payload: dict plane | index plane | escape plane, each framed as
//	         length uint32 | CRC-32C uint32 | bytes
//
// All integers are little-endian. A chunk record count of zero is the
// end-of-stream marker (its payload length must also be zero). Chunks are
// self-delimiting and independently decodable: the decoder state — the
// 256-entry address history ring, the previous refID, the record position
// — resets at every chunk boundary, so streaming and seeking need no
// lookahead.
//
// Records compress because the paper's premise holds at the I/O boundary
// too: reference streams walk compiler-visible strides, so the step from a
// site's previous address to its next is constant across loop iterations,
// and a site recurs at the fixed period of its loop body. Each record
// reduces to a step tuple
//
//	(lookback, Δaddr, ΔrefID, gap, size, flags)
//
// where lookback in [1,255] names how many records before this one the
// base address appeared (the site's recurrence period; 1 = the previous
// record) and Δaddr is relative to that base, taken from a 256-entry ring
// of recent addresses that starts zeroed in every chunk. ΔrefID is
// relative to the previous record's refID, wrapping mod 2^32. A per-chunk
// dictionary holds up to 255 step tuples chosen by frequency (Δs
// zigzag-varint encoded, lookback/gap/size/flags raw); the index plane
// spends exactly one byte per record naming a dictionary entry, with 0xFF
// escaping to a literal flat-format record (the 15-byte v2 layout) in the
// escape plane. Loop-nest traces collapse to a handful of dictionary
// entries — about one byte per record, a 10x+ reduction — while irregular
// streams degrade gracefully to escapes that cost one byte more than a
// flat record and decode at flat-format speed.
const (
	sctzMagic   = "SCTZ"
	sctzVersion = 3

	// sctzUnknownTotal in the header's record-count field marks a stream
	// whose length was not known when the header was written (a live
	// capture or a socket): the reader then reports Len() == -1 and relies
	// on the cumulative MaxRecords budget instead of an up-front check.
	sctzUnknownTotal = ^uint64(0)

	// sctzChunkRecords is the records-per-chunk the writer emits. Bigger
	// chunks amortise the dictionary better; smaller ones bound the
	// writer's buffering. 4096 records keep the raw chunk (~164 KiB)
	// cache-friendly while the dictionary converges within the first few
	// dozen records of a loop nest.
	sctzChunkRecords = 4096

	// maxSCTZChunkRecords bounds the per-chunk record count a reader will
	// accept. The writer's chunks are far smaller; the bound exists so a
	// hostile header cannot demand a multi-gigabyte batch allocation.
	maxSCTZChunkRecords = 1 << 20

	// maxSCTZChunkPayload bounds the per-chunk payload bytes a reader will
	// buffer. A maximal legitimate chunk (every record escaped) stays
	// under 17 MiB; the 64 MiB bound leaves headroom without letting a
	// hostile length field demand gigabytes.
	maxSCTZChunkPayload = 1 << 26

	// sctzEscape is the index-plane byte that redirects a record to the
	// escape plane. Dictionary indices therefore run 0..254.
	sctzEscape  = 0xFF
	sctzMaxDict = 255

	// sctzRingSize is the address-history window tuples may look back
	// into: one slot per recent record, power of two so the position masks
	// to a slot without bounds checks. 255 (the widest encodable
	// lookback) covers the recurrence period of any loop body with up to
	// 255 references.
	sctzRingSize = 256

	// sctzSiteCap bounds the encoder's per-site recurrence table. RefIDs
	// are dense small integers (one per reference site), so 64Ki sites is
	// far beyond any generated or captured trace; records with larger
	// refIDs still round-trip, they just fall back to lookback 1.
	sctzSiteCap = 1 << 16
)

// crcTable is the Castagnoli polynomial table used for plane checksums
// (hardware-accelerated on amd64/arm64, unlike the IEEE polynomial).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zigzag maps a signed delta to an unsigned varint-friendly value
// (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// stepTuple is the per-record delta representation the dictionary encodes.
// dAddr is the wrapping offset from the ring slot lookback records back;
// dRef is the wrapping uint32 offset from the previous record's refID.
type stepTuple struct {
	dAddr uint64
	dRef  uint32
	look  uint8
	gap   uint8
	size  uint8
	flags uint8
}

// appendTuple serialises one dictionary entry.
func appendTuple(b []byte, t stepTuple) []byte {
	b = append(b, t.look)
	b = binary.AppendUvarint(b, zigzag(int64(t.dAddr)))
	b = binary.AppendUvarint(b, zigzag(int64(int32(t.dRef))))
	return append(b, t.gap, t.size, t.flags)
}

// tupleSize is the serialised size appendTuple will produce.
func tupleSize(t stepTuple) int {
	n := 1 + 3
	for _, u := range [2]uint64{zigzag(int64(t.dAddr)), zigzag(int64(int32(t.dRef)))} {
		for {
			n++
			if u < 0x80 {
				break
			}
			u >>= 7
		}
	}
	return n
}

// decodeTupleEntry reads one dictionary entry from b at pos.
func decodeTupleEntry(b []byte, pos int) (stepTuple, int, error) {
	var t stepTuple
	if pos >= len(b) {
		return t, 0, fmt.Errorf("truncated lookback")
	}
	t.look = b[pos]
	pos++
	ua, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return t, 0, fmt.Errorf("bad Δaddr varint")
	}
	pos += n
	ur, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return t, 0, fmt.Errorf("bad ΔrefID varint")
	}
	pos += n
	if pos+3 > len(b) {
		return t, 0, fmt.Errorf("truncated tuple tail")
	}
	t.dAddr = uint64(unzigzag(ua))
	t.dRef = uint32(unzigzag(ur))
	t.gap, t.size, t.flags = b[pos], b[pos+1], b[pos+2]
	return t, pos + 3, nil
}

// encSite is the encoder's per-refID recurrence record: where the site
// last appeared in the current chunk. The epoch stamp makes the per-chunk
// reset O(1).
type encSite struct {
	pos   int32
	epoch uint32
}

// tupleStat tracks one distinct step tuple during chunk encoding.
type tupleStat struct {
	t     stepTuple
	count int32
	first int32 // record index of first occurrence (deterministic tie-break)
	idx   int16 // assigned dictionary index, -1 = escape
}

// StreamWriter encodes records into an SCTZ stream incrementally, so a
// trace source (a generator, a din import, a capture) can be converted
// without ever materialising it. The header is written immediately with an
// unknown record count; Close flushes the final partial chunk and the
// end-of-stream marker. Not safe for concurrent use.
type StreamWriter struct {
	bw     *bufio.Writer
	pend   []Record
	total  uint64
	sites  []encSite
	epoch  uint32
	ring   [sctzRingSize]uint64
	closed bool
	err    error // sticky: the first write error, returned ever after

	// per-chunk encode scratch, reused across chunks
	stats   []tupleStat
	lookup  map[stepTuple]int32
	recStat []int32 // per record: index into stats
	order   []int32
	dictBuf []byte
	idxBuf  []byte
	escBuf  []byte
}

// NewStreamWriter writes the stream header (with an unknown record count)
// and returns a writer ready for Write calls. The caller must Close it to
// terminate the stream.
func NewStreamWriter(w io.Writer, name string) (*StreamWriter, error) {
	return newStreamWriter(w, name, sctzUnknownTotal)
}

func newStreamWriter(w io.Writer, name string, total uint64) (*StreamWriter, error) {
	if len(name) > 0xffff {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := make([]byte, 0, len(sctzMagic)+4+len(name)+8)
	hdr = append(hdr, sctzMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, sctzVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, total)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &StreamWriter{
		bw:     bw,
		pend:   make([]Record, 0, sctzChunkRecords),
		sites:  make([]encSite, sctzSiteCap),
		lookup: make(map[stepTuple]int32),
	}, nil
}

// Write buffers recs and flushes full chunks. The slice may be reused by
// the caller after Write returns.
func (w *StreamWriter) Write(recs []Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("trace: write to closed SCTZ writer")
		return w.err
	}
	for len(recs) > 0 {
		n := min(len(recs), sctzChunkRecords-len(w.pend))
		w.pend = append(w.pend, recs[:n]...)
		recs = recs[n:]
		if len(w.pend) == sctzChunkRecords {
			if err := w.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *StreamWriter) Count() uint64 { return w.total + uint64(len(w.pend)) }

// Close flushes the final partial chunk, writes the end-of-stream marker
// and flushes the underlying writer. Closing an already-closed writer
// returns the sticky error, if any.
func (w *StreamWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.pend) > 0 {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	var marker [8]byte // count 0, payload length 0
	if _, err := w.bw.Write(marker[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// flushChunk encodes and writes the pending records as one chunk.
func (w *StreamWriter) flushChunk() error {
	recs := w.pend
	w.epoch++
	epoch := w.epoch
	sites := w.sites
	w.ring = [sctzRingSize]uint64{} // the decoder's ring starts zeroed per chunk

	// Pass 1: reduce each record to its step tuple and count distinct
	// tuples. The ring mirrors the decoder's exactly — same zeroed start,
	// same update rule — so any lookback the encoder picks inverts
	// bit-for-bit; the per-site table is only the heuristic for picking a
	// lookback that makes tuples recur.
	w.stats = w.stats[:0]
	clear(w.lookup)
	w.recStat = w.recStat[:0]
	prevRef := uint32(0)
	for i := range recs {
		r := &recs[i]
		look := 1
		if ref := r.RefID; ref < sctzSiteCap {
			if s := &sites[ref]; s.epoch == epoch {
				if d := i - int(s.pos); d <= 0xFF {
					look = d
				}
			}
			sites[ref] = encSite{pos: int32(i), epoch: epoch}
		}
		t := stepTuple{
			dAddr: r.Addr - w.ring[(i-look)&(sctzRingSize-1)],
			dRef:  r.RefID - prevRef,
			look:  uint8(look),
			gap:   r.Gap,
			size:  r.Size,
			flags: packFlags(*r),
		}
		w.ring[i&(sctzRingSize-1)] = r.Addr
		prevRef = r.RefID
		si, ok := w.lookup[t]
		if !ok {
			si = int32(len(w.stats))
			w.stats = append(w.stats, tupleStat{t: t, first: int32(i), idx: -1})
			w.lookup[t] = si
		}
		w.stats[si].count++
		w.recStat = append(w.recStat, si)
	}

	// Dictionary selection: a tuple earns a slot when indexing it beats
	// escaping each occurrence (escape: 15 bytes against the entry's
	// serialised size), best payoff first, first occurrence breaking ties
	// so the encoding stays deterministic, capped at 255 entries.
	benefit := func(s *tupleStat) int32 {
		return s.count*escapeRecordSize - int32(tupleSize(s.t))
	}
	w.order = w.order[:0]
	for i := range w.stats {
		if benefit(&w.stats[i]) > 0 {
			w.order = append(w.order, int32(i))
		}
	}
	sort.Slice(w.order, func(a, b int) bool {
		sa, sb := &w.stats[w.order[a]], &w.stats[w.order[b]]
		if ba, bb := benefit(sa), benefit(sb); ba != bb {
			return ba > bb
		}
		return sa.first < sb.first
	})
	if len(w.order) > sctzMaxDict {
		w.order = w.order[:sctzMaxDict]
	}
	w.dictBuf = append(w.dictBuf[:0], byte(len(w.order)))
	for di, si := range w.order {
		w.stats[si].idx = int16(di)
		w.dictBuf = appendTuple(w.dictBuf, w.stats[si].t)
	}

	// Pass 2: emit the index plane (one byte per record) and the escape
	// plane (literal flat-layout records for dictionary misses).
	w.idxBuf = w.idxBuf[:0]
	w.escBuf = w.escBuf[:0]
	for ri, si := range w.recStat {
		st := &w.stats[si]
		if st.idx >= 0 {
			w.idxBuf = append(w.idxBuf, byte(st.idx))
		} else {
			w.idxBuf = append(w.idxBuf, sctzEscape)
			r := &recs[ri]
			w.escBuf = binary.LittleEndian.AppendUint64(w.escBuf, r.Addr)
			w.escBuf = binary.LittleEndian.AppendUint32(w.escBuf, r.RefID)
			w.escBuf = append(w.escBuf, r.Gap, r.Size, packFlags(*r))
		}
	}

	payloadLen := 3*8 + len(w.dictBuf) + len(w.idxBuf) + len(w.escBuf)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(recs)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payloadLen))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	for _, plane := range [3][]byte{w.dictBuf, w.idxBuf, w.escBuf} {
		var ph [8]byte
		binary.LittleEndian.PutUint32(ph[0:4], uint32(len(plane)))
		binary.LittleEndian.PutUint32(ph[4:8], crc32.Checksum(plane, crcTable))
		if _, err := w.bw.Write(ph[:]); err != nil {
			w.err = err
			return err
		}
		if _, err := w.bw.Write(plane); err != nil {
			w.err = err
			return err
		}
	}
	w.total += uint64(len(recs))
	w.pend = w.pend[:0]
	return nil
}

// escapeRecordSize is the flat v2 record layout the escape plane reuses.
const escapeRecordSize = recordSize

// WriteSCTZ serialises the trace in the compressed chunked format: the
// whole-trace form of CopySCTZ. The header carries the exact record count;
// use a StreamWriter when the count is not known in advance.
func WriteSCTZ(w io.Writer, t *Trace) error {
	_, err := CopySCTZ(w, t.Reader())
	return err
}

// Decoded records travel through the hot loop as three packed 64-bit
// words rather than Record fields:
//
//	w0: Addr
//	w1: RefID (bits 0-31) | Gap (32-39) | Size (40-47) | Write (48-55) |
//	    Temporal (56-63)
//	w2: Spatial (bits 0-7) | VirtualHint (8-15) | SoftwarePrefetch (16-23)
//
// with bools as 0/1 bytes and all other bits zero. The convention is
// defined by these shifts (endian-independent); it is chosen to coincide
// with Record's little-endian memory layout so storeRecord can write a
// record as three word stores on those targets (sctz_store_le.go).

// storeRecordPortable materialises a packed record field by field. It is
// the portable mirror of the little-endian fast path and the executable
// definition of the word convention; a unit test pins the two together.
func storeRecordPortable(d *Record, w0, w1, w2 uint64) {
	*d = Record{
		Addr:             w0,
		RefID:            uint32(w1),
		Gap:              uint8(w1 >> 32),
		Size:             uint8(w1 >> 40),
		Write:            uint8(w1>>48) != 0,
		Temporal:         uint8(w1>>56) != 0,
		Spatial:          uint8(w2) != 0,
		VirtualHint:      uint8(w2 >> 8),
		SoftwarePrefetch: uint8(w2>>16) != 0,
	}
}

// flagPacked maps a wire flags byte to its packed-word contribution:
// [0] is w1's Write/Temporal bits, [1] is the complete w2.
var flagPacked = func() (t [256][2]uint64) {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for f := range t {
		p := &flagProto[f]
		t[f][0] = b(p.Write)<<48 | b(p.Temporal)<<56
		t[f][1] = b(p.Spatial) | uint64(p.VirtualHint)<<8 | b(p.SoftwarePrefetch)<<16
	}
	return
}()

// escapeW1Mask keeps a raw escape record's RefID/Gap/Size bits when
// shifting the second escape word into w1 position, dropping the flags
// byte that flagPacked replaces.
const escapeW1Mask = (uint64(1) << 48) - 1

// dictEntry is a decoded dictionary tuple with the flag- and gap/size-
// derived packed words prefilled, so a dictionary hit is two word ORs plus
// the address/refID arithmetic. 32 bytes, so dict indexing is a shift and
// entries never straddle cache lines.
type dictEntry struct {
	w1    uint64 // packed w1 with the RefID bits zero
	w2    uint64
	dAddr uint64
	dRef  uint32
	look  uint8
	_     [3]byte
}

// StreamReader decodes an SCTZ stream chunk by chunk. It implements the
// same ReadBatch contract as the flat Reader (see BatchReader), holding
// only one chunk's planes plus the fixed-size history ring in memory, so
// arbitrarily large traces stream in O(batch) space. Errors carry the byte
// offset into the stream at which the problem was found. The cumulative
// record count across chunks is capped by MaxRecords — a hostile stream
// announcing modest chunks forever hits ErrTooLarge, the same budget the
// flat header check enforces up front.
type StreamReader struct {
	br     peekReader
	name   string
	total  uint64 // sctzUnknownTotal when the header did not say
	read   uint64 // records accepted across chunk headers
	budget uint64 // cumulative record cap, MaxRecords by default
	chunks uint64
	offset int64
	done   bool
	err    error // sticky

	// current chunk state
	dict    []dictEntry
	idx     []byte // one index byte per record; may alias the source buffer
	esc     []byte
	escPos  int
	left    int // records not yet delivered from this chunk
	pos     int // records already delivered from this chunk
	prevRef uint32
	ring    [sctzRingSize]uint64
	payload []byte // owned copy when the source window cannot serve a view
}

// NewStreamReader parses the SCTZ header and positions the reader before
// the first chunk. Headers announcing more than MaxRecords records are
// rejected with ErrTooLarge.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	return newStreamReader(bufio.NewReaderSize(r, 1<<16))
}

// NewStreamReaderBytes is NewStreamReader for a stream already resident in
// memory (or memory-mapped): chunk planes are decoded as views into data
// with no staging copy.
func NewStreamReaderBytes(data []byte) (*StreamReader, error) {
	return newStreamReader(&bytesPeeker{data: data})
}

func newStreamReader(br peekReader) (*StreamReader, error) {
	offset := int64(0)
	head := make([]byte, len(sctzMagic)+4)
	if n, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading sctz header at byte offset %d: %w", offset+int64(n), err)
	}
	offset += int64(len(head))
	if string(head[:4]) != sctzMagic {
		return nil, fmt.Errorf("%w: bad sctz magic at byte offset 0", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != sctzVersion {
		return nil, fmt.Errorf("%w: unsupported sctz version %d at byte offset 4", ErrBadFormat, v)
	}
	nameLen := int(binary.LittleEndian.Uint16(head[6:8]))
	name := make([]byte, nameLen)
	if n, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading sctz name at byte offset %d: %w", offset+int64(n), err)
	}
	offset += int64(nameLen)
	var cnt [8]byte
	if n, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading sctz count at byte offset %d: %w", offset+int64(n), err)
	}
	total := binary.LittleEndian.Uint64(cnt[:])
	if total != sctzUnknownTotal && total > MaxRecords {
		return nil, fmt.Errorf("%w: header at byte offset %d announces %d records (budget %d)",
			ErrTooLarge, offset, total, uint64(MaxRecords))
	}
	offset += int64(len(cnt))
	return &StreamReader{
		br:     br,
		name:   string(name),
		total:  total,
		budget: MaxRecords,
		offset: offset,
	}, nil
}

// Name returns the trace name from the header.
func (r *StreamReader) Name() string { return r.name }

// Len returns the total record count announced by the header, or -1 when
// the stream was written without one (StreamWriter).
func (r *StreamReader) Len() int {
	if r.total == sctzUnknownTotal {
		return -1
	}
	return int(r.total)
}

// Offset returns the number of bytes consumed from the stream so far.
func (r *StreamReader) Offset() int64 { return r.offset }

// Chunks returns the number of chunks decoded so far.
func (r *StreamReader) Chunks() uint64 { return r.chunks }

// fail records err as the reader's sticky error and returns it: after any
// decode error every later ReadBatch call reports the same failure instead
// of resynchronising into a corrupt stream.
func (r *StreamReader) fail(err error) error {
	r.err = err
	return err
}

// nextChunk reads and validates the next chunk header and payload, leaving
// the plane cursors ready for decodeInto. It returns io.EOF (without
// setting the sticky error) at a well-formed end-of-stream marker.
func (r *StreamReader) nextChunk() error {
	var hdr [8]byte
	hdrOff := r.offset
	if n, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the marker chunk is mandatory
		}
		return r.fail(fmt.Errorf("trace: reading sctz chunk %d header at byte offset %d: %w",
			r.chunks, hdrOff+int64(n), err))
	}
	r.offset += 8
	count := binary.LittleEndian.Uint32(hdr[0:4])
	payloadLen := binary.LittleEndian.Uint32(hdr[4:8])
	if count == 0 {
		if payloadLen != 0 {
			return r.fail(fmt.Errorf("%w: end marker at byte offset %d carries %d payload bytes",
				ErrBadFormat, hdrOff, payloadLen))
		}
		if r.total != sctzUnknownTotal && r.read != r.total {
			return r.fail(fmt.Errorf("%w: stream ended at byte offset %d after %d records; header announced %d",
				ErrBadFormat, hdrOff, r.read, r.total))
		}
		r.done = true
		return io.EOF
	}
	if count > maxSCTZChunkRecords {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d announces %d records (max %d)",
			ErrBadFormat, r.chunks, hdrOff, count, maxSCTZChunkRecords))
	}
	if r.read+uint64(count) > r.budget {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d pushes the cumulative record count to %d (budget %d)",
			ErrTooLarge, r.chunks, hdrOff, r.read+uint64(count), r.budget))
	}
	if r.total != sctzUnknownTotal && r.read+uint64(count) > r.total {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d carries records beyond the announced total %d",
			ErrBadFormat, r.chunks, hdrOff, r.total))
	}
	if payloadLen > maxSCTZChunkPayload {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d announces %d payload bytes (max %d)",
			ErrBadFormat, r.chunks, hdrOff, payloadLen, maxSCTZChunkPayload))
	}
	if payloadLen < 3*8+1+count { // three plane frames, dict count byte, one index byte per record
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d announces %d payload bytes, too few for %d records",
			ErrBadFormat, r.chunks, hdrOff, payloadLen, count))
	}

	// Borrow the payload from the source window when it fits (always, for
	// resident bytes), else copy it into the reader-owned buffer. A
	// borrowed view stays valid until the next read from the source, which
	// happens only after this chunk is fully decoded.
	n := int(payloadLen)
	var payload []byte
	raw, peekErr := r.br.Peek(n)
	switch {
	case len(raw) >= n:
		payload = raw[:n]
		if _, err := r.br.Discard(n); err != nil {
			return r.fail(fmt.Errorf("trace: discarding %d peeked bytes: %w", n, err))
		}
	case peekErr == bufio.ErrBufferFull:
		// Copy in bounded steps with geometric growth: a hostile length
		// field backed by a truncated stream costs one step of work, not a
		// maxSCTZChunkPayload allocation.
		r.payload = r.payload[:0]
		for len(r.payload) < n {
			start := len(r.payload)
			step := min(n-start, 1<<20)
			if cap(r.payload) < start+step {
				grown := make([]byte, start+step, min(n, max(2*(start+step), 1<<16)))
				copy(grown, r.payload)
				r.payload = grown
			} else {
				r.payload = r.payload[:start+step]
			}
			if m, err := io.ReadFull(r.br, r.payload[start:]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return r.fail(fmt.Errorf("trace: reading sctz chunk %d payload at byte offset %d: %w",
					r.chunks, r.offset+int64(start+m), err))
			}
		}
		payload = r.payload
	default:
		return r.fail(fmt.Errorf("trace: reading sctz chunk %d payload at byte offset %d: %w",
			r.chunks, r.offset+int64(len(raw)), io.ErrUnexpectedEOF))
	}

	// Split the payload into its three checksummed planes.
	var planes [3][]byte
	pos := 0
	for i, name := range [3]string{"dict", "index", "escape"} {
		if pos+8 > n {
			return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: truncated %s plane header",
				ErrBadFormat, r.chunks, hdrOff, name))
		}
		planeLen := int(binary.LittleEndian.Uint32(payload[pos : pos+4]))
		sum := binary.LittleEndian.Uint32(payload[pos+4 : pos+8])
		pos += 8
		if planeLen > n-pos {
			return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: %s plane length %d overruns the payload",
				ErrBadFormat, r.chunks, hdrOff, name, planeLen))
		}
		planes[i] = payload[pos : pos+planeLen]
		pos += planeLen
		if got := crc32.Checksum(planes[i], crcTable); got != sum {
			return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: %s plane checksum mismatch (stored %08x, computed %08x)",
				ErrBadFormat, r.chunks, hdrOff, name, sum, got))
		}
	}
	if pos != n {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: %d trailing payload bytes after the planes",
			ErrBadFormat, r.chunks, hdrOff, n-pos))
	}
	dictPlane, idxPlane, escPlane := planes[0], planes[1], planes[2]
	if len(idxPlane) != int(count) {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: index plane is %d bytes for %d records",
			ErrBadFormat, r.chunks, hdrOff, len(idxPlane), count))
	}
	if len(escPlane)%escapeRecordSize != 0 {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: escape plane is %d bytes, not a whole number of records",
			ErrBadFormat, r.chunks, hdrOff, len(escPlane)))
	}
	if len(dictPlane) < 1 {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: empty dict plane", ErrBadFormat, r.chunks, hdrOff))
	}
	dictN := int(dictPlane[0])
	r.dict = r.dict[:0]
	dp := 1
	for i := 0; i < dictN; i++ {
		t, next, err := decodeTupleEntry(dictPlane, dp)
		if err != nil {
			return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: dict entry %d: %v",
				ErrBadFormat, r.chunks, hdrOff, i, err))
		}
		dp = next
		r.dict = append(r.dict, dictEntry{
			w1:    uint64(t.gap)<<32 | uint64(t.size)<<40 | flagPacked[t.flags][0],
			w2:    flagPacked[t.flags][1],
			dAddr: t.dAddr,
			dRef:  t.dRef,
			look:  t.look,
		})
	}
	if dp != len(dictPlane) {
		return r.fail(fmt.Errorf("%w: chunk %d at byte offset %d: %d trailing dict plane bytes",
			ErrBadFormat, r.chunks, hdrOff, len(dictPlane)-dp))
	}

	r.idx = idxPlane
	r.esc = escPlane
	r.escPos = 0
	r.left = int(count)
	r.pos = 0
	r.prevRef = 0
	r.ring = [sctzRingSize]uint64{}
	r.offset += int64(n)
	r.read += uint64(count)
	r.chunks++
	return nil
}

// ReadBatch decodes up to len(dst) records into dst and returns the number
// decoded; after the last record the next call returns (0, io.EOF). The
// contract matches Reader.ReadBatch: n > 0 with err != nil can occur
// together when a chunk boundary reveals corruption or truncation.
func (r *StreamReader) ReadBatch(dst []Record) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(dst) {
		if r.left == 0 {
			if r.done {
				break
			}
			if err := r.nextChunk(); err != nil {
				if err == io.EOF {
					break
				}
				return n, err
			}
		}
		m, err := r.decodeInto(dst[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	if n == 0 {
		if r.done {
			return 0, io.EOF
		}
		return 0, nil
	}
	return n, nil
}

// decodeInto materialises up to len(dst) records from the current chunk.
// This loop is the streaming pipeline's hot path: the index and
// destination windows are resliced to the same length up front so the
// per-record loads and stores run bounds-check-free; a dictionary hit is
// two prepacked word ORs, one masked ring load and one wrapping add; an
// escape is the flat format's two-overlapping-loads decode shifted into
// packed position. Either way the record lands via storeRecord's three
// word stores — fewer stores per record than the flat decoder's field
// writes, which is where the format wins its decode-rate target. Both
// arms update the ring and the previous refID, and neither needs a
// validity branch: every lookback masks into the ring and refID
// arithmetic wraps mod 2^32, so any checksum-clean chunk decodes
// deterministically.
func (r *StreamReader) decodeInto(dst []Record) (int, error) {
	n := min(len(dst), r.left)
	ip := r.pos
	tail := r.idx[ip : ip+n]
	dst = dst[:n]
	esc, ep := r.esc, r.escPos
	dict := r.dict
	ring := &r.ring
	pos := ip
	prevRef := r.prevRef
	for i := range dst {
		d := &dst[i]
		if k := int(tail[i]); k < len(dict) {
			e := &dict[k]
			ref := prevRef + e.dRef
			addr := ring[(pos-int(e.look))&(sctzRingSize-1)] + e.dAddr
			storeRecord(d, addr, e.w1|uint64(ref), e.w2)
			ring[pos&(sctzRingSize-1)] = addr
			prevRef = ref
		} else if k == sctzEscape {
			if ep+escapeRecordSize > len(esc) {
				r.commitCursor(pos, ep, prevRef)
				return i, r.fail(fmt.Errorf("%w: chunk %d record %d: escape plane exhausted",
					ErrBadFormat, r.chunks-1, pos))
			}
			b := esc[ep : ep+escapeRecordSize]
			w0 := binary.LittleEndian.Uint64(b[:8])
			raw := binary.LittleEndian.Uint64(b[7:15])
			fp := &flagPacked[raw>>56]
			storeRecord(d, w0, raw>>8&escapeW1Mask|fp[0], fp[1])
			ep += escapeRecordSize
			ring[pos&(sctzRingSize-1)] = w0
			prevRef = uint32(raw >> 8)
		} else {
			r.commitCursor(pos, ep, prevRef)
			return i, r.fail(fmt.Errorf("%w: chunk %d record %d: index byte %d beyond the %d-entry dict",
				ErrBadFormat, r.chunks-1, pos, k, len(dict)))
		}
		pos++
	}
	r.commitCursor(pos, ep, prevRef)
	if r.left == 0 && ep != len(esc) {
		return n, r.fail(fmt.Errorf("%w: chunk %d: %d trailing escape plane bytes",
			ErrBadFormat, r.chunks-1, len(esc)-ep))
	}
	return n, nil
}

// commitCursor writes the decode cursor back to the reader.
func (r *StreamReader) commitCursor(pos, ep int, prevRef uint32) {
	r.left = len(r.idx) - pos
	r.pos = pos
	r.escPos = ep
	r.prevRef = prevRef
}
