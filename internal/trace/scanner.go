package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// CSVScanner streams a profile CSV (seq,name,time_us) from disk without
// loading it into memory, re-reading the file on every Scan — the access
// pattern the two-pass streaming planner needs for out-of-core profiles.
type CSVScanner struct {
	Path string
}

// Scan implements the streaming-profile interface: it yields every
// (name, time) row in file order, under the same time validation as the
// byte-level decoder.
func (s CSVScanner) Scan(yield func(name string, timeUS float64) bool) error {
	f, err := os.Open(s.Path)
	if err != nil {
		return fmt.Errorf("trace: open profile: %w", err)
	}
	defer f.Close()

	cr := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	cr.FieldsPerRecord = 3
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("trace: read csv header: %w", err)
	}
	if header[0] != "seq" || header[1] != "name" || header[2] != "time_us" {
		return fmt.Errorf("trace: unexpected csv header %v", header)
	}
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read csv row: %w", err)
		}
		t, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return fmt.Errorf("trace: parse time %q: %w", rec[2], err)
		}
		if err := checkTime(row, t); err != nil {
			return err
		}
		if !yield(rec[1], t) {
			return nil
		}
	}
}
