package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// readProfileCSVReference is an encoding/csv profile parser, the oracle the
// production decoder is checked against. It validates no times and accepts
// quoted fields that span lines.
func readProfileCSVReference(in io.Reader) (names []string, times []float64, err error) {
	cr := csv.NewReader(in)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("trace: read csv header: %w", err)
	}
	if header[0] != "seq" || header[1] != "name" || header[2] != "time_us" {
		return nil, nil, fmt.Errorf("trace: unexpected csv header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("trace: read csv row: %w", err)
		}
		t, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: parse time %q: %w", rec[2], err)
		}
		names = append(names, rec[1])
		times = append(times, t)
	}
	return names, times, nil
}

// TestMultilineQuotedFieldRejected pins the one input the shared decoder
// narrows: a quoted field spanning lines. The encoding/csv reference
// accepts it; batch and stream ingest both reject it.
func TestMultilineQuotedFieldRejected(t *testing.T) {
	body := "seq,name,time_us\n0,\"two\nlines\",3\n1,b,2\n"
	if names, _, err := readProfileCSVReference(strings.NewReader(body)); err != nil || names[0] != "two\nlines" {
		t.Fatalf("reference parsed (%q, %v)", names, err)
	}
	if _, _, err := ReadProfileCSV(strings.NewReader(body)); err == nil {
		t.Fatal("ReadProfileCSV accepted a quoted field spanning lines")
	}
	err := NewFastCSVReader(strings.NewReader(body)).ScanBytes(func([]byte, float64) bool { return true })
	if err == nil {
		t.Fatal("ScanBytes accepted a quoted field spanning lines")
	}
}

// TestProfileIngestRejectsBadTimes checks the one ingest boundary: batch,
// stream and the two-pass scanner all refuse a NaN, infinite or negative
// time, and name its 1-based data row (blank lines are not rows).
func TestProfileIngestRejectsBadTimes(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "+Inf", "inf", "-Inf", "-1", "-0.5"} {
		body := "seq,name,time_us\n0,a,1\n\n1,b," + bad + "\n2,c,3\n"
		const wantRow = "row 2:"
		if _, _, err := ReadProfileCSV(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), wantRow) {
			t.Errorf("ReadProfileCSV(%s): err = %v, want %q", bad, err, wantRow)
		}
		err := NewFastCSVReader(strings.NewReader(body)).ScanBytes(func([]byte, float64) bool { return true })
		if err == nil || !strings.Contains(err.Error(), wantRow) {
			t.Errorf("ScanBytes(%s): err = %v, want %q", bad, err, wantRow)
		}
		p := writeTempCSV(t, body)
		err = CSVScanner{Path: p}.Scan(func(string, float64) bool { return true })
		if err == nil || !strings.Contains(err.Error(), wantRow) {
			t.Errorf("CSVScanner(%s): err = %v, want %q", bad, err, wantRow)
		}
	}
	// An out-of-range literal is a parse error, not an infinite time.
	if _, _, err := ReadProfileCSV(strings.NewReader("seq,name,time_us\n0,a,1e400\n")); err == nil {
		t.Fatal("ReadProfileCSV accepted 1e400")
	}
	// Zero and negative zero are valid measured times.
	if _, times, err := ReadProfileCSV(strings.NewReader("seq,name,time_us\n0,a,0\n1,a,-0\n")); err != nil || len(times) != 2 {
		t.Fatalf("zero times rejected: %v", err)
	}
}

// syntheticProfile renders rows rows over kernels distinct kernel names.
func syntheticProfile(rows, kernels int) []byte {
	var b bytes.Buffer
	b.WriteString("seq,name,time_us\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,sm75_xmma_gemm_kernel_%d,%g\n", i, (i*7)%kernels, 10+float64((i*37)%1000)/8)
	}
	return b.Bytes()
}

func TestReadProfileCSVInternsNames(t *testing.T) {
	small, large := syntheticProfile(10000, 12), syntheticProfile(100000, 12)
	names, _, err := ReadProfileCSV(bytes.NewReader(large))
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[string]*byte)
	for _, n := range names {
		p := unsafe.StringData(n)
		if q, ok := first[n]; ok && q != p {
			t.Fatalf("name %q allocated more than once", n)
		} else if !ok {
			first[n] = p
		}
	}
	// Per run: the reader and intern map are fixed costs and the result
	// slices grow geometrically, so ten times the rows adds only a few
	// slice growths — no allocation per row.
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := ReadProfileCSV(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	a10k, a100k := allocs(small), allocs(large)
	if a100k-a10k > 40 {
		t.Fatalf("ReadProfileCSV allocations grow with rows: %v at 10k, %v at 100k", a10k, a100k)
	}
}

func BenchmarkReadProfileCSV(b *testing.B) {
	data := syntheticProfile(100000, 12)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		names, _, err := ReadProfileCSV(bytes.NewReader(data))
		if err != nil || len(names) != 100000 {
			b.Fatalf("parsed %d rows: %v", len(names), err)
		}
	}
}
