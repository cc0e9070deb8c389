package kernelbench

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"hccmf/internal/dataset"
	"hccmf/internal/sparse"
)

// Ingestion micro-benchmarks: the chunked text reader and block binary
// reader of internal/dataset, the binary writer, and the grid sort of
// internal/sparse, measured on the same 2000×1000/200k matrix as the
// kernel suite rendered as a text file and in the binary format.

// IngestWorkers is the worker count the text read benchmark runs
// with. Fixed (rather than GOMAXPROCS) so reports from different hosts
// measure the same configuration.
const IngestWorkers = 8

var (
	ingestOnce sync.Once
	ingestText []byte // WriteText rendering of Matrix()
	ingestBin  []byte // WriteBinary rendering of Matrix()
)

// ingestInit renders the shared input buffers once; every benchmark
// parses from memory so the numbers measure parsing, not disk.
func ingestInit() {
	ingestOnce.Do(func() {
		m := Matrix()
		var tb, bb bytes.Buffer
		err1 := dataset.WriteText(&tb, m)
		err2 := dataset.WriteBinary(&bb, m)
		if err1 != nil || err2 != nil {
			// lint:invariant bytes.Buffer writes cannot fail; an error here means the writers themselves are broken.
			panic(fmt.Sprint("kernelbench: rendering ingest fixtures: ", err1, err2))
		}
		ingestText, ingestBin = tb.Bytes(), bb.Bytes()
	})
}

// ReportIngest attaches the throughput metrics shared by every ingest
// benchmark: input MB/s and parsed entries/s.
func ReportIngest(b *testing.B, inputBytes, entries int) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	n := float64(b.N)
	b.ReportMetric(float64(inputBytes)*n/sec/1e6, "MB/s")
	b.ReportMetric(float64(entries)*n/sec, "entries/s")
}

// IngestReadText benchmarks the chunked text reader.
func IngestReadText(b *testing.B) {
	ingestInit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadTextWorkers(bytes.NewReader(ingestText), IngestWorkers); err != nil {
			b.Fatal(err)
		}
	}
	ReportIngest(b, len(ingestText), NNZ)
}

// IngestReadBinary benchmarks the 64 KiB block binary reader.
func IngestReadBinary(b *testing.B) {
	ingestInit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadBinary(bytes.NewReader(ingestBin)); err != nil {
			b.Fatal(err)
		}
	}
	ReportIngest(b, len(ingestBin), NNZ)
}

// IngestSortByRow benchmarks the stable counting sort on the unsorted
// benchmark matrix; each op restores the shuffled order first so every
// iteration sorts the same permutation.
func IngestSortByRow(b *testing.B) {
	m := Matrix()
	shuffled := append([]sparse.Rating(nil), m.Entries...)
	entryBytes := NNZ * 12 // Rating is two int32 + one float32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(m.Entries, shuffled)
		m.SortByRow()
	}
	ReportIngest(b, entryBytes, NNZ)
}

// IngestWriteBinary benchmarks the block binary writer.
func IngestWriteBinary(b *testing.B) {
	ingestInit()
	m := Matrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dataset.WriteBinary(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
	ReportIngest(b, len(ingestBin), NNZ)
}

// IngestSuite lists the ingestion benchmarks in report order. Names match
// the BenchmarkIngest* wrappers in bench_test.go minus the prefix.
func IngestSuite() []Bench {
	return []Bench{
		{"ReadText", IngestReadText},
		{"ReadBinary", IngestReadBinary},
		{"SortByRow", IngestSortByRow},
		{"WriteBinary", IngestWriteBinary},
	}
}
