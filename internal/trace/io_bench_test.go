package trace

import (
	"bytes"
	"fmt"
	"testing"
)

func synthTrace(n int) *Trace {
	t := &Trace{Name: "synth"}
	for i := 0; i < n; i++ {
		t.Append(Record{
			Addr:     uint64(i) * 8,
			RefID:    uint32(i % 97),
			Gap:      uint8(1 + i%3),
			Size:     8,
			Write:    i%4 == 0,
			Temporal: i%3 == 0,
			Spatial:  i%5 == 0,
		})
	}
	return t
}

// BenchmarkReadBatch measures the chunked decode path that core.Run
// uses, across destination sizes bracketing the pooled
// BatchSize: the decode cost per record should be flat once the per-call
// overhead is amortised, which is what justifies 2048 as the pool shape.
func BenchmarkReadBatch(b *testing.B) {
	t := synthTrace(1 << 20)
	var buf bytes.Buffer
	if err := Write(&buf, t); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, size := range []int{256, 1024, 2048} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			dst := make([]Record, size)
			b.SetBytes(int64(len(t.Records)) * recordSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := NewReaderBytes(data)
				if err != nil {
					b.Fatal(err)
				}
				for {
					n, err := r.ReadBatch(dst)
					if n == 0 && err != nil {
						break
					}
				}
			}
		})
	}
}

// BenchmarkStreamReadBatch measures the SCTZ chunked decode against the
// same synthetic stream BenchmarkReadBatch uses, so the two paths compare
// directly (the official gate is softcache-perf's decode/*/flat and
// decode/*/sctz rows).
func BenchmarkStreamReadBatch(b *testing.B) {
	t := synthTrace(1 << 20)
	var buf bytes.Buffer
	if err := WriteSCTZ(&buf, t); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Logf("flat %d B, sctz %d B (%.2fx)", len(t.Records)*recordSize, len(data),
		float64(len(t.Records)*recordSize)/float64(len(data)))
	dst := make([]Record, BatchSize)
	b.SetBytes(int64(len(t.Records)) * recordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewStreamReaderBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := r.ReadBatch(dst)
			if n == 0 && err != nil {
				break
			}
		}
	}
}
