package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// WriteJSON serializes a workload (including latent ground truth, so that a
// written trace reproduces experiments exactly).
func (w *Workload) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	return enc.Encode(w)
}

// ReadWorkloadJSON deserializes a workload written by WriteJSON.
func ReadWorkloadJSON(in io.Reader) (*Workload, error) {
	var w Workload
	dec := json.NewDecoder(in)
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("trace: decode workload: %w", err)
	}
	return &w, nil
}

// WriteCSV writes a profile as "seq,name,time_us" rows, the same shape an
// Nsight Systems kernel-summary export has.
func (p *Profile) WriteCSV(w *Workload, out io.Writer) error {
	if err := p.Validate(w); err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"seq", "name", "time_us"}); err != nil {
		return err
	}
	row := make([]string, 3)
	for i := range w.Invs {
		row[0] = strconv.Itoa(w.Invs[i].Seq)
		row[1] = w.Invs[i].Name
		row[2] = strconv.FormatFloat(p.TimeUS[i], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadProfileCSV parses a CSV written by WriteCSV. Kernel names are returned
// alongside times so a profile can be used without its workload.
//
// It decodes through FastCSVReader.ScanBytes, the decoder the streaming
// path uses, so batch and stream accept and reject exactly the same inputs:
// one header check, and every time must be finite and non-negative (the
// error names the 1-based data row). Names are interned, so each distinct
// kernel name is allocated once however many rows repeat it. Quoted fields
// follow encoding/csv, except that a quoted field spanning lines is
// rejected: the decoder is line-oriented.
func ReadProfileCSV(in io.Reader) (names []string, times []float64, err error) {
	intern := make(map[string]string)
	err = NewFastCSVReader(in).ScanBytes(func(name []byte, t float64) bool {
		s, ok := intern[string(name)] // the conversion in a lookup does not allocate
		if !ok {
			s = string(name)
			intern[s] = s
		}
		names = appendDoubling(names, s)
		times = appendDoubling(times, t)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return names, times, nil
}

// appendDoubling appends v, doubling the capacity of a full s. Plain append
// grows large slices by about 1.25x, which allocates and copies roughly five
// times the final array; doubling bounds that at two.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}
