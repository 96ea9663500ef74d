package workloads

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stemroot/internal/trace"
)

// readProfileCSVReference is an encoding/csv profile parser, the oracle
// trace.ReadProfileCSV is checked against (the trace package keeps the same
// oracle in its tests; test helpers do not cross packages). It validates no
// times.
func readProfileCSVReference(in io.Reader) (names []string, times []float64, err error) {
	cr := csv.NewReader(in)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, nil, err
	}
	if header[0] != "seq" || header[1] != "name" || header[2] != "time_us" {
		return nil, nil, fmt.Errorf("unexpected csv header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return names, times, nil
		}
		if err != nil {
			return nil, nil, err
		}
		t, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, rec[1])
		times = append(times, t)
	}
}

// FuzzFromProfile hardens the profile ingestion path end to end: arbitrary
// CSV bytes go through the production decoder (trace.ReadProfileCSV) and
// the encoding/csv reference. On quote-free input the decoder must accept
// exactly what the reference accepts with finite, non-negative times, and
// produce the identical rows. Whatever it accepts must build a workload
// without panicking — malformed, truncated, or huge-field lines included —
// bit-identical to the map-based reference reconstruction.
func FuzzFromProfile(f *testing.F) {
	f.Add([]byte("seq,name,time_us\n0,gemm,1.5\n1,relu,2\n"))
	f.Add([]byte("seq,name,time_us\r\n0,a,1e3\r\n"))
	f.Add([]byte("seq,name,time_us\n0,\"quoted,name\",3\n"))
	f.Add([]byte("seq,name,time_us\n\n1,b,2\n"))
	f.Add([]byte("seq,name,time_us\n0,a,NaN\n"))
	f.Add([]byte("seq,name,time_us\n0,a\n"))
	f.Add([]byte("seq,name,time_us\n0,a,1,extra\n"))
	f.Add([]byte("seq,name,time_us\n0," + strings.Repeat("x", 4096) + ",7\n"))
	f.Add([]byte("not,a,header\n0,a,1\n"))
	f.Add([]byte(""))
	f.Add([]byte("seq,name,time_us\n0,a,1")) // no trailing newline
	f.Add([]byte("seq,name,time_us\n0,a,0\n1,b,4\n2,a,0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		names, times, err := trace.ReadProfileCSV(bytes.NewReader(data))

		if !bytes.ContainsRune(data, '"') {
			refNames, refTimes, refErr := readProfileCSVReference(bytes.NewReader(data))
			refValid := refErr == nil
			for _, v := range refTimes {
				refValid = refValid && v >= 0 && !math.IsInf(v, 1)
			}
			if refValid != (err == nil) {
				t.Fatalf("decoder err %v, reference err %v, reference times %v\ninput: %q", err, refErr, refTimes, data)
			}
			if refValid && (!reflect.DeepEqual(names, refNames) || !reflect.DeepEqual(times, refTimes)) {
				t.Fatalf("decoder rows %q %v, reference %q %v\ninput: %q", names, times, refNames, refTimes, data)
			}
		}

		if err != nil || len(names) == 0 || len(names) > 2000 {
			return
		}
		w := FromProfile("fuzz", names, times, 7)
		if w.Len() != len(names) {
			t.Fatalf("FromProfile lost invocations: %d of %d", w.Len(), len(names))
		}
		if !reflect.DeepEqual(w, fromProfileReference("fuzz", names, times, 7)) {
			t.Fatalf("FromProfile differs from the reference\ninput: %q", data)
		}
	})
}
