package table

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV serializes the table (header + rows) to w in RFC 4180 CSV.
// Hidden columns and FDs are not serialized; they are schema metadata.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.cols); err != nil {
		return fmt.Errorf("table: write header: %w", err)
	}
	for i, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return fmt.Errorf("table: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table from CSV. The first record is the header.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: read header: %w", err)
	}
	t := New(header...)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: read line %d: %w", line, err)
		}
		if err := t.AppendRow(rec...); err != nil {
			return nil, fmt.Errorf("table: line %d: %w", line, err)
		}
	}
	return t, nil
}
