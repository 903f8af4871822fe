package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"testing"
)

// eachRecords drains r through Each, copying every chunk fn is handed.
func eachRecords(r BatchReader) (recs []Record, calls int, err error) {
	err = Each(context.Background(), r, func(chunk []Record) error {
		calls++
		recs = append(recs, chunk...)
		return nil
	})
	return recs, calls, err
}

// countingReader counts the reads that reach its source.
type countingReader struct {
	BatchReader
	reads int
}

func (c *countingReader) ReadBatch(dst []Record) (int, error) {
	c.reads++
	return c.BatchReader.ReadBatch(dst)
}

func TestEachEmpty(t *testing.T) {
	empty := &Trace{Name: "empty"}
	var flat bytes.Buffer
	if err := Write(&flat, empty); err != nil {
		t.Fatal(err)
	}
	open := opener(t)
	for name, r := range map[string]BatchReader{
		"memory": empty.Reader(),
		"flat":   open(NewReaderBytes(flat.Bytes())),
		"sctz":   open(NewStreamReader(bytes.NewReader(sctzBytes(t, empty)))),
	} {
		if _, calls, err := eachRecords(r); calls != 0 || err != nil {
			t.Errorf("%s: fn called %d times, err %v; want 0 calls and nil", name, calls, err)
		}
	}
}

// TestEachTruncated: a stream cut short hands fn every complete record,
// in order, before Each returns io.ErrUnexpectedEOF.
func TestEachTruncated(t *testing.T) {
	tr := randomTrace(5, 3*BatchSize+100)
	var flat bytes.Buffer
	if err := Write(&flat, tr); err != nil {
		t.Fatal(err)
	}
	sctz := sctzBytes(t, tr)
	open := opener(t)
	for _, c := range []struct {
		name string
		r    BatchReader
		want int
	}{
		// 40 records and half of one more cut off the end.
		{"flat", open(NewReaderBytes(flat.Bytes()[:flat.Len()-40*recordSize-7])), len(tr.Records) - 41},
		// The last chunk loses its tail, so only the whole chunks decode.
		{"sctz", open(NewStreamReader(bytes.NewReader(sctz[:len(sctz)-100]))), len(tr.Records) / sctzChunkRecords * sctzChunkRecords},
	} {
		got, _, err := eachRecords(c.r)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err %v, want io.ErrUnexpectedEOF", c.name, err)
		}
		if len(got) != c.want || !slices.Equal(got, tr.Records[:len(got)]) {
			t.Errorf("%s: fn saw %d records, want the first %d", c.name, len(got), c.want)
		}
	}
}

// opener returns a func that passes on a decoder a constructor returned,
// failing t on the constructor's error.
func opener(t *testing.T) func(BatchReader, error) BatchReader {
	return func(r BatchReader, err error) BatchReader {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// TestEachCancelledBetweenBatches: a context cancelled during fn stops
// the loop before the next read.
func TestEachCancelledBetweenBatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &countingReader{BatchReader: randomTrace(1, 3*BatchSize).Reader()}
	calls := 0
	err := Each(ctx, r, func([]Record) error {
		calls++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if calls != 1 || r.reads != 1 {
		t.Fatalf("fn called %d times after %d reads, want 1 and 1", calls, r.reads)
	}
}

// TestEachStopsOnFnError: an error from fn is returned as is, with no
// further read.
func TestEachStopsOnFnError(t *testing.T) {
	stop := errors.New("stop")
	r := &countingReader{BatchReader: randomTrace(2, 3*BatchSize).Reader()}
	calls := 0
	err := Each(context.Background(), r, func([]Record) error {
		calls++
		return stop
	})
	if err != stop {
		t.Fatalf("err %v, want the fn error as is", err)
	}
	if calls != 1 || r.reads != 1 {
		t.Fatalf("fn called %d times after %d reads, want 1 and 1", calls, r.reads)
	}
}
