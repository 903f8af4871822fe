package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// faultSeeds mirrors the harness fault-injection corpus inline (the
// harness package imports trace, so this test cannot import it back):
// truncations at every framing boundary, corrupted magic/version bytes,
// absurd record counts and flag garbage. They seed both fuzzers so the
// generated corpus starts from the corruption classes the corpus already
// proved interesting.
func faultSeeds(f *testing.F) [][]byte {
	var healthy bytes.Buffer
	if err := Write(&healthy, &Trace{
		Name: "seed",
		Records: []Record{
			{Addr: 0x1000, RefID: 1, Size: 8, Temporal: true},
			{Addr: 0x2000, RefID: 2, Size: 8, Spatial: true, Write: true},
			{Addr: 0x3000, RefID: 3, Size: 4, Gap: 2},
		},
	}); err != nil {
		f.Fatal(err)
	}
	h := healthy.Bytes()
	headerLen := 4 + 2 + 2 + len("seed") + 8
	countOff := headerLen - 8
	clone := func() []byte { return append([]byte(nil), h...) }

	seeds := [][]byte{h}
	// Truncations: mid-magic, mid-version, mid-name, mid-count, mid-record.
	for _, at := range []int{0, 2, 5, 4 + 2 + 2 + 2, countOff + 3, headerLen + 7, len(h) - 1} {
		if at >= 0 && at < len(h) {
			seeds = append(seeds, clone()[:at])
		}
	}
	badMagic := clone()
	badMagic[0] = 'X'
	seeds = append(seeds, badMagic)

	badVersion := clone()
	binary.LittleEndian.PutUint16(badVersion[4:6], 0x7fff)
	seeds = append(seeds, badVersion)

	huge := clone()
	binary.LittleEndian.PutUint64(huge[countOff:countOff+8], ^uint64(0))
	seeds = append(seeds, huge)

	overBudget := clone()
	binary.LittleEndian.PutUint64(overBudget[countOff:countOff+8], MaxRecords+1)
	seeds = append(seeds, overBudget)

	offByOne := clone()
	binary.LittleEndian.PutUint64(offByOne[countOff:countOff+8], 4)
	seeds = append(seeds, offByOne)

	flagGarbage := clone()
	flagGarbage[headerLen+14] = 0xff
	seeds = append(seeds, flagGarbage)

	return seeds
}

// FuzzRead feeds arbitrary bytes to the format sniffer every CLI and the
// daemon read traces through (NewAnyReader, then ReadAll): it must never
// panic and must either fail cleanly or return a structurally valid trace.
func FuzzRead(f *testing.F) {
	for _, s := range faultSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("SCTR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readAll(NewAnyReader(bytes.NewReader(data), "fuzz"))
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("nil trace with nil error")
		}
		// A parsed trace must be internally consistent.
		if len(tr.Records) != tr.Len() {
			t.Fatal("Len disagrees with Records")
		}
	})
}

// FuzzReadDin feeds arbitrary text to the Dinero importer: it must never
// panic and every rejection must carry the byte offset of the bad line.
func FuzzReadDin(f *testing.F) {
	f.Add("0 1000\n1 2000\n2 3000\n")
	f.Add("0 1000 8\n")
	f.Add("")
	f.Add("# comment\n\n0 1000\n")
	f.Add("9 1000\n") // bad kind
	f.Add("0\n")      // missing address
	f.Add("0 zz\n")   // bad address
	f.Add(strings.Repeat("0 1000\n", 3) + "0 1000")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := readAll(NewDinReader(strings.NewReader(data), "fuzz"))
		if err != nil {
			if !strings.Contains(err.Error(), "byte offset") {
				t.Fatalf("rejection without byte offset: %v", err)
			}
			return
		}
		if tr == nil {
			t.Fatal("nil trace with nil error")
		}
		if len(tr.Records) != tr.Len() {
			t.Fatal("Len disagrees with Records")
		}
	})
}

// sctzFaultSeeds builds the SCTZ corruption corpus: a healthy compressed
// stream plus truncations at every framing boundary, corrupted magic and
// version, hostile chunk counts and payload lengths, flipped plane bytes
// (checksum coverage) and index bytes pointing past the dictionary.
func sctzFaultSeeds(f *testing.F) [][]byte {
	var healthy bytes.Buffer
	tr := &Trace{Name: "seed"}
	for i := 0; i < 600; i++ {
		tr.Append(Record{Addr: 0x1000 + uint64(i)*8, RefID: uint32(i % 5), Size: 8, Gap: 1, Temporal: i%2 == 0})
	}
	if err := WriteSCTZ(&healthy, tr); err != nil {
		f.Fatal(err)
	}
	h := healthy.Bytes()
	headerLen := 4 + 2 + 2 + len("seed") + 8
	clone := func() []byte { return append([]byte(nil), h...) }

	seeds := [][]byte{h}
	// Truncations: mid-magic, mid-header, mid-chunk-header, mid-plane,
	// just before the end marker.
	for _, at := range []int{0, 2, 5, headerLen - 3, headerLen + 4, headerLen + 20, len(h) / 2, len(h) - 9, len(h) - 1} {
		if at >= 0 && at < len(h) {
			seeds = append(seeds, clone()[:at])
		}
	}
	badMagic := clone()
	badMagic[0] = 'X'
	seeds = append(seeds, badMagic)

	badVersion := clone()
	binary.LittleEndian.PutUint16(badVersion[4:6], 0x7fff)
	seeds = append(seeds, badVersion)

	hugeTotal := clone()
	binary.LittleEndian.PutUint64(hugeTotal[headerLen-8:headerLen], MaxRecords+1)
	seeds = append(seeds, hugeTotal)

	hugeChunk := clone()
	binary.LittleEndian.PutUint32(hugeChunk[headerLen:headerLen+4], ^uint32(0))
	seeds = append(seeds, hugeChunk)

	hugePayload := clone()
	binary.LittleEndian.PutUint32(hugePayload[headerLen+4:headerLen+8], ^uint32(0))
	seeds = append(seeds, hugePayload)

	// One flipped byte in each third of the first chunk's payload, so the
	// dict, index and escape planes all see checksum damage.
	for _, frac := range []int{4, 2} {
		flip := clone()
		flip[headerLen+8+len(flip)/frac%64] ^= 0x20
		seeds = append(seeds, flip)
	}
	markerPayload := clone()
	binary.LittleEndian.PutUint32(markerPayload[len(markerPayload)-4:], 7)
	seeds = append(seeds, markerPayload)

	return seeds
}

// FuzzStreamReader feeds arbitrary bytes to the SCTZ decoder: it must
// never panic, never over-read past announced bounds, and either fail
// cleanly or produce a structurally valid trace.
func FuzzStreamReader(f *testing.F) {
	for _, s := range sctzFaultSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("SCTZ"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewStreamReaderBytes(data)
		if err != nil {
			return
		}
		tr, err := ReadAll(r)
		if err != nil {
			// The sticky error must repeat, not resynchronise.
			if _, err2 := r.ReadBatch(make([]Record, 8)); err2 == nil {
				t.Fatal("decode continued after an error")
			}
			return
		}
		if tr == nil {
			t.Fatal("nil trace with nil error")
		}
		if want := r.Len(); want >= 0 && want != len(tr.Records) {
			t.Fatalf("announced %d records, decoded %d", want, len(tr.Records))
		}
		// The streaming and buffered paths must agree bit for bit.
		tr2, err := readAll(NewStreamReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("bufio path rejected what the bytes path accepted: %v", err)
		}
		if len(tr2.Records) != len(tr.Records) {
			t.Fatalf("bufio path decoded %d records, bytes path %d", len(tr2.Records), len(tr.Records))
		}
		for i := range tr.Records {
			if tr.Records[i] != tr2.Records[i] {
				t.Fatalf("record %d differs between paths", i)
			}
		}
	})
}
