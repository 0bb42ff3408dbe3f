package vertica

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"verticadr/internal/colstore"
)

// LoadCSV bulk-loads CSV records into a table (the "data resides as files in
// the local ext4 filesystem" loading mode of Fig. 21). No statement or
// command loads CSV, so it lives beside the tests that hold its parsing. Fields are parsed according to the table schema; hasHeader
// skips the first record. Rows are routed through the table's segmentation
// exactly like any other load.
func (db *DB) LoadCSV(table string, r io.Reader, hasHeader bool) (int, error) {
	def, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(def.Schema)
	cr.ReuseRecord = true
	if hasHeader {
		if _, err := cr.Read(); err != nil {
			return 0, fmt.Errorf("vertica: read CSV header: %w", err)
		}
	}
	const flushRows = 8192
	batch := colstore.NewBatch(def.Schema)
	total := 0
	vals := make([]any, len(def.Schema))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, fmt.Errorf("vertica: read CSV: %w", err)
		}
		for i, field := range rec {
			switch def.Schema[i].Type {
			case colstore.TypeInt64:
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return total, fmt.Errorf("vertica: column %q: bad integer %q", def.Schema[i].Name, field)
				}
				vals[i] = v
			case colstore.TypeFloat64:
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return total, fmt.Errorf("vertica: column %q: bad float %q", def.Schema[i].Name, field)
				}
				vals[i] = v
			case colstore.TypeString:
				vals[i] = field
			case colstore.TypeBool:
				switch field {
				case "true", "t", "1", "TRUE", "T":
					vals[i] = true
				case "false", "f", "0", "FALSE", "F":
					vals[i] = false
				default:
					return total, fmt.Errorf("vertica: column %q: bad boolean %q", def.Schema[i].Name, field)
				}
			}
		}
		if err := batch.AppendRow(vals...); err != nil {
			return total, err
		}
		total++
		if batch.Len() >= flushRows {
			if err := db.Load(table, batch); err != nil {
				return total, err
			}
			batch = colstore.NewBatch(def.Schema)
		}
	}
	if batch.Len() > 0 {
		if err := db.Load(table, batch); err != nil {
			return total, err
		}
	}
	return total, nil
}
