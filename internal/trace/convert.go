package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file holds the trace encoders, one per format: each copies a
// BatchReader to its output format one pooled batch at a time, so a
// multi-gigabyte capture converts in O(batch) memory. Write and WriteSCTZ
// are their whole-trace forms over Trace.Reader. The source's ReadBatch
// errors propagate, so a corrupt input fails the conversion instead of
// silently truncating the output.

// CopySCTZ streams r into the compressed SCTZ format. When the source
// knows its length the header announces it; otherwise the stream is
// written open-ended (Len() == -1 for later readers).
func CopySCTZ(w io.Writer, r BatchReader) (uint64, error) {
	total := sctzUnknownTotal
	if n := r.Len(); n >= 0 {
		total = uint64(n)
	}
	sw, err := newStreamWriter(w, r.Name(), total)
	if err != nil {
		return 0, err
	}
	if err := copyBatches(sw.Write, r); err != nil {
		return sw.Count(), err
	}
	if err := sw.Close(); err != nil {
		return sw.Count(), err
	}
	if total != sctzUnknownTotal && sw.Count() != total {
		return sw.Count(), fmt.Errorf("trace: source announced %d records but yielded %d", total, sw.Count())
	}
	return sw.Count(), nil
}

// CopyFlat streams r into the flat SCTR format. The flat header carries
// the record count up front, so the source must know its length; sources
// that do not (din imports, open-ended SCTZ streams) must convert to SCTZ
// instead, or be materialised first.
func CopyFlat(w io.Writer, r BatchReader) (uint64, error) {
	n := r.Len()
	if n < 0 {
		return 0, fmt.Errorf("trace: flat output needs the record count up front and %q does not announce one; convert to sctz instead", r.Name())
	}
	name := r.Name()
	if len(name) > 0xffff {
		return 0, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := make([]byte, 0, len(magic)+4+len(name)+8)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, formatVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
	if _, err := bw.Write(hdr); err != nil {
		return 0, err
	}
	var written uint64
	err := copyBatches(func(recs []Record) error {
		var buf [recordSize]byte
		for i := range recs {
			rec := &recs[i]
			binary.LittleEndian.PutUint64(buf[0:8], rec.Addr)
			binary.LittleEndian.PutUint32(buf[8:12], rec.RefID)
			buf[12] = rec.Gap
			buf[13] = rec.Size
			buf[14] = packFlags(*rec)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		written += uint64(len(recs))
		return nil
	}, r)
	if err != nil {
		return written, err
	}
	if written != uint64(n) {
		return written, fmt.Errorf("trace: source announced %d records but yielded %d", n, written)
	}
	return written, bw.Flush()
}

// CopyDin streams r into Dinero text (software tags and timing are lost —
// the format cannot carry them). Software-prefetch records are skipped and
// do not count toward the returned total.
func CopyDin(w io.Writer, r BatchReader) (uint64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var written uint64
	err := copyBatches(func(recs []Record) error {
		for i := range recs {
			rec := &recs[i]
			if rec.SoftwarePrefetch {
				continue
			}
			label := byte('0')
			if rec.Write {
				label = '1'
			}
			if _, err := fmt.Fprintf(bw, "%c %x\n", label, rec.Addr); err != nil {
				return err
			}
			written++
		}
		return nil
	}, r)
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// copyBatches drains r through a pooled batch, handing each chunk to sink.
func copyBatches(sink func([]Record) error, r BatchReader) error {
	batch := GetBatch()
	defer PutBatch(batch)
	for {
		n, rerr := r.ReadBatch(*batch)
		if n > 0 {
			if err := sink((*batch)[:n]); err != nil {
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
