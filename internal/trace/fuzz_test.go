package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadProfileCSV holds the production decoder to the encoding/csv
// reference: it never panics, every profile it accepts has finite,
// non-negative times, and on quote-free input it accepts exactly what the
// reference accepts with valid times, row for row. (Quoted fields differ
// only on a field spanning lines; TestMultilineQuotedFieldRejected pins
// that.)
func FuzzReadProfileCSV(f *testing.F) {
	f.Add([]byte("seq,name,time_us\n0,gemm,1.5\n1,relu,2\n"))
	f.Add([]byte("seq,name,time_us\n"))
	f.Add([]byte("bogus"))
	f.Add([]byte("seq,name,time_us\n0,k,notanumber\n"))
	f.Add([]byte("seq,name,time_us\n0,\"quoted,name\",3.25\n"))
	f.Add([]byte("seq,name,time_us\n0,\"two\nlines\",3.25\n"))
	f.Add([]byte("seq,name,time_us\r\n0,a,NaN\r\n"))
	f.Add([]byte("seq,name,time_us\n\n0,a,1\n1,a,-Inf\n"))
	f.Add([]byte("seq,name,time_us\n0,a,-0\n1,b,-2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		names, times, err := ReadProfileCSV(bytes.NewReader(data))
		if err == nil {
			if len(names) != len(times) {
				t.Fatalf("accepted profile with %d names, %d times", len(names), len(times))
			}
			for i, v := range times {
				if !(v >= 0) || math.IsInf(v, 1) {
					t.Fatalf("accepted time %v at row %d\ninput: %q", v, i+1, data)
				}
			}
		}
		if bytes.IndexByte(data, '"') >= 0 {
			return
		}
		refNames, refTimes, refErr := readProfileCSVReference(bytes.NewReader(data))
		refValid := refErr == nil
		for _, v := range refTimes {
			refValid = refValid && v >= 0 && !math.IsInf(v, 1)
		}
		if refValid != (err == nil) {
			t.Fatalf("decoder err %v, reference err %v, reference times %v\ninput: %q", err, refErr, refTimes, data)
		}
		if !refValid {
			return
		}
		if len(names) != len(refNames) {
			t.Fatalf("row count %d, reference %d\ninput: %q", len(names), len(refNames), data)
		}
		for i := range refNames {
			if names[i] != refNames[i] || times[i] != refTimes[i] {
				t.Fatalf("row %d: (%q,%v), reference (%q,%v)\ninput: %q",
					i+1, names[i], times[i], refNames[i], refTimes[i], data)
			}
		}
	})
}

// FuzzBBVSimilarity checks similarity stays bounded and symmetric for
// arbitrary invocations.
func FuzzBBVSimilarity(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(100), int64(200), 0, 1)
	f.Add(uint64(0), uint64(0), int64(0), int64(0), 0, 0)
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, instrsA, instrsB int64, ctxA, ctxB int) {
		a := Invocation{Name: "k", BBVSeed: seedA, InstrsPerWarp: instrsA, Latent: Latent{Context: ctxA & 7}}
		b := Invocation{Name: "k", BBVSeed: seedB, InstrsPerWarp: instrsB, Latent: Latent{Context: ctxB & 7}}
		va, vb := a.BBV(32), b.BBV(32)
		s := BBVSimilarity(va, vb)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("similarity out of range: %v", s)
		}
		if r := BBVSimilarity(vb, va); math.Abs(s-r) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", s, r)
		}
	})
}
