package vertica

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
)

// WAL record types for the database redo log. Each record is one atomic,
// self-describing mutation; recovery replays them in LSN order onto a
// checkpoint image and arrives at exactly the pre-crash state.
const (
	// recCreateTable carries a persistedTable JSON document (the same schema
	// manifest the checkpoint catalog uses).
	recCreateTable byte = 1
	// recDropTable carries the table name.
	recDropTable byte = 2
	// recLoad carries a table name plus the POST-split per-node row batches
	// of one COPY/INSERT. Logging after the splitter ran keeps replay
	// independent of splitter state (round-robin cursors do not survive a
	// restart), so recovered segments hold byte-identical rows per node.
	recLoad byte = 3
	// recBlobPut carries a DFS path and blob bytes (model deploy/redeploy).
	recBlobPut byte = 4
	// recBlobDelete carries a DFS path (model drop).
	recBlobDelete byte = 5
	// recCreateIndex carries (name, table, column) of a secondary-index
	// CREATE. Only the DDL is logged; replay rebuilds the B-tree from the
	// recovered table data, so the record stays small and self-describing.
	recCreateIndex byte = 6
	// recDropIndex carries (name, table, column) of a secondary-index DROP.
	recDropIndex byte = 7
)

// --- create / drop ---------------------------------------------------------

func encodeCreateTable(def *catalog.TableDef) ([]byte, error) {
	return json.Marshal(tableManifest(def))
}

func decodeCreateTable(body []byte) (*catalog.TableDef, error) {
	var pt persistedTable
	if err := json.Unmarshal(body, &pt); err != nil {
		return nil, fmt.Errorf("vertica: wal create-table record: %w", err)
	}
	return manifestTableDef(pt)
}

// --- load ------------------------------------------------------------------

// encodeLoad frames per-node batches: uvarint len(table), table, uvarint
// nodes, then per node either a zero byte (no rows for that node) or the
// batch as a chunk — uvarint ncols, then length-prefixed column blocks in
// schema order (colstore.AppendChunk, the layout vft ships).
func encodeLoad(table string, parts []*colstore.Batch) ([]byte, error) {
	var buf, scratch []byte
	var err error
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, part := range parts {
		if part == nil || part.Len() == 0 {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		if buf, scratch, err = colstore.AppendChunk(buf, scratch, part); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func decodeLoad(body []byte, schemaOf func(table string) (colstore.Schema, error)) (string, []*colstore.Batch, error) {
	table, rest, err := cutString(body)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal load record: %w", err)
	}
	schema, err := schemaOf(table)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal load record for %q: %w", table, err)
	}
	nodes, rest, err := cutUvarint(rest)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal load record: %w", err)
	}
	if nodes > uint64(len(rest)) { // every node takes at least its zero byte
		return "", nil, fmt.Errorf("vertica: wal load record: %d nodes in %d bytes", nodes, len(rest))
	}
	parts := make([]*colstore.Batch, nodes)
	for n := range parts {
		if len(rest) > 0 && rest[0] == 0 {
			rest = rest[1:]
			continue
		}
		b := colstore.NewBatch(schema)
		if rest, err = colstore.DecodeChunkInto(b, rest); err != nil {
			return "", nil, fmt.Errorf("vertica: wal load record for %q: %w", table, err)
		}
		parts[n] = b
	}
	return table, parts, nil
}

// --- index DDL -------------------------------------------------------------

// encodeIndexDDL frames three uvarint-prefixed strings: name, table, column.
// CREATE and DROP share the layout; the record type carries the verb.
func encodeIndexDDL(name, table, column string) []byte {
	var buf []byte
	for _, s := range []string{name, table, column} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func decodeIndexDDL(body []byte) (name, table, column string, err error) {
	rest := body
	for _, dst := range []*string{&name, &table, &column} {
		if *dst, rest, err = cutString(rest); err != nil {
			return "", "", "", fmt.Errorf("vertica: wal index record: %w", err)
		}
	}
	return name, table, column, nil
}

// --- blobs -----------------------------------------------------------------

func encodeBlobPut(path string, data []byte) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(path)))
	buf = append(buf, path...)
	buf = append(buf, data...)
	return buf
}

func decodeBlobPut(body []byte) (string, []byte, error) {
	path, rest, err := cutString(body)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal blob record: %w", err)
	}
	return path, rest, nil
}

// --- varint helpers --------------------------------------------------------

func cutUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad varint")
	}
	return v, buf[n:], nil
}

func cutString(buf []byte) (string, []byte, error) {
	n, rest, err := cutUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(rest[:n]), rest[n:], nil
}
