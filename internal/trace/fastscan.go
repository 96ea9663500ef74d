package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unsafe"
)

// fastscan.go is the zero-allocation profile-CSV decoder: a []byte-level
// record parser plus streaming readers built on it. The hot path — a plain
// "seq,name,time_us" row with no quoting — touches no strings.Split, no
// intermediate string conversions, and no per-row heap allocation; rows
// containing a '"' fall back to encoding/csv for identical quote
// semantics. Multi-line quoted records (a newline inside a quoted field)
// are not supported by the line-oriented fast readers and surface as a
// parse error. ScanBytes is the one profile ingest boundary: the batch
// ReadProfileCSV and the streaming CLI both decode through it, so both
// apply the same header check and the same time validation (checkTime).

// ErrFieldCount reports a data row whose comma count is not exactly three
// fields.
var ErrFieldCount = errors.New("trace: profile row must have 3 fields")

// ParseProfileRecord decodes one "seq,name,time_us" CSV row in place. The
// returned name aliases line — copy it if it must outlive the buffer. A
// trailing "\n" or "\r\n" is tolerated. Rows containing a quote character
// are delegated to encoding/csv (allocating, but rare); everything else is
// parsed allocation-free. The seq field is not interpreted, matching the
// string-based readers.
func ParseProfileRecord(line []byte) (name []byte, timeUS float64, err error) {
	line = trimLineEnd(line)
	if bytes.IndexByte(line, '"') >= 0 {
		return parseQuotedRecord(line)
	}
	c1 := bytes.IndexByte(line, ',')
	if c1 < 0 {
		return nil, 0, ErrFieldCount
	}
	rest := line[c1+1:]
	c2 := bytes.IndexByte(rest, ',')
	if c2 < 0 {
		return nil, 0, ErrFieldCount
	}
	name = rest[:c2]
	field := rest[c2+1:]
	if bytes.IndexByte(field, ',') >= 0 {
		return nil, 0, ErrFieldCount
	}
	t, err := strconv.ParseFloat(bytesToString(field), 64)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: parse time %q: %w", field, err)
	}
	return name, t, nil
}

// parseQuotedRecord handles the rare quoted row with encoding/csv so the
// fast path reproduces its escaping rules exactly.
func parseQuotedRecord(line []byte) ([]byte, float64, error) {
	cr := csv.NewReader(bytes.NewReader(line))
	cr.FieldsPerRecord = 3
	rec, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("trace: read csv row: %w", err)
	}
	t, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: parse time %q: %w", rec[2], err)
	}
	return []byte(rec[1]), t, nil
}

// trimLineEnd strips one trailing "\n" or "\r\n".
func trimLineEnd(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// bytesToString views b as a string without copying, for read-only use
// inside a single call (strconv.ParseFloat does not retain its argument).
func bytesToString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// FastCSVReader streams profile rows from an io.Reader through
// ParseProfileRecord. It is single-shot (the reader is consumed); use
// FastCSVScanner for the re-scannable file-based variant.
type FastCSVReader struct {
	br      *bufio.Reader
	scratch []byte // spill buffer for lines longer than the bufio window
}

// NewFastCSVReader wraps r. The buffer is sized for wide rows so steady
// state never spills.
func NewFastCSVReader(r io.Reader) *FastCSVReader {
	return &FastCSVReader{br: bufio.NewReaderSize(r, 1<<20)}
}

// readLine returns the next line including its terminator, valid until the
// next call. Lines longer than the buffer are accumulated into the spill
// scratch (allocating only then). Returns io.EOF with no data at end.
func (fr *FastCSVReader) readLine() ([]byte, error) {
	line, err := fr.br.ReadSlice('\n')
	if err == nil {
		return line, nil
	}
	if err == io.EOF {
		if len(line) == 0 {
			return nil, io.EOF
		}
		return line, nil // final unterminated line
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	fr.scratch = append(fr.scratch[:0], line...)
	for {
		line, err = fr.br.ReadSlice('\n')
		fr.scratch = append(fr.scratch, line...)
		switch err {
		case nil:
			return fr.scratch, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(fr.scratch) == 0 {
				return nil, io.EOF
			}
			return fr.scratch, nil
		default:
			return nil, err
		}
	}
}

// header validates the "seq,name,time_us" header line.
func validateHeader(line []byte) error {
	line = trimLineEnd(line)
	if bytes.IndexByte(line, '"') >= 0 {
		cr := csv.NewReader(bytes.NewReader(line))
		cr.FieldsPerRecord = 3
		rec, err := cr.Read()
		if err != nil {
			return fmt.Errorf("trace: read csv header: %w", err)
		}
		if rec[0] != "seq" || rec[1] != "name" || rec[2] != "time_us" {
			return fmt.Errorf("trace: unexpected csv header %v", rec)
		}
		return nil
	}
	if !bytes.Equal(line, []byte("seq,name,time_us")) {
		return fmt.Errorf("trace: unexpected csv header %q", line)
	}
	return nil
}

// checkTime rejects a measured time that is NaN, infinite or negative; row
// is the 1-based data row, for the error message.
func checkTime(row int, t float64) error {
	if t >= 0 && !math.IsInf(t, 1) {
		return nil
	}
	return fmt.Errorf("trace: row %d: time %v must be finite and non-negative", row, t)
}

// ScanBytes yields every (name, time) row in order. The name slice is only
// valid during the yield call — the zero-alloc contract: callers that need
// to retain it must copy (e.g. via an interning symbol table). Blank lines
// are skipped, matching encoding/csv. A time that is NaN, infinite or
// negative is an error naming its 1-based data row.
func (fr *FastCSVReader) ScanBytes(yield func(name []byte, timeUS float64) bool) error {
	line, err := fr.readLine()
	if err != nil {
		return fmt.Errorf("trace: read csv header: %w", err)
	}
	if err := validateHeader(line); err != nil {
		return err
	}
	row := 0
	for {
		line, err := fr.readLine()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read csv row: %w", err)
		}
		if len(trimLineEnd(line)) == 0 {
			continue
		}
		row++
		name, t, err := ParseProfileRecord(line)
		if err != nil {
			return err
		}
		if err := checkTime(row, t); err != nil {
			return err
		}
		if !yield(name, t) {
			return nil
		}
	}
}

// FastCSVScanner is the re-scannable, file-backed profile source built on
// the byte-level decoder — a drop-in replacement for CSVScanner that
// parses roughly twice as fast and allocates nothing per row on ScanBytes.
type FastCSVScanner struct {
	Path string
}

// ScanBytes streams the file through the zero-alloc decoder. Name slices
// are only valid during the yield.
func (s FastCSVScanner) ScanBytes(yield func(name []byte, timeUS float64) bool) error {
	f, err := os.Open(s.Path)
	if err != nil {
		return fmt.Errorf("trace: open profile: %w", err)
	}
	defer f.Close()
	return NewFastCSVReader(f).ScanBytes(yield)
}

// Scan implements the streaming-profile interface with string names.
func (s FastCSVScanner) Scan(yield func(name string, timeUS float64) bool) error {
	return s.ScanBytes(func(name []byte, t float64) bool {
		return yield(string(name), t)
	})
}
