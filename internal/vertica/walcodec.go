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

// encodeLoadWith frames per-node batches: uvarint len(table), table, uvarint
// nodes, then per node either a zero byte (no rows for that node) or the
// batch as a chunk — uvarint ncols, then length-prefixed column blocks in
// schema order (colstore.AppendChunk, the layout vft ships). Each chunk is
// cut into its parts first (colstore.ChunkParts: PLAIN numeric payloads by
// reference, the rest in scratch, the commit stream's, grown as it needs),
// so the record is allocated once, at its size, and every payload copied
// once.
func encodeLoadWith(sp *[]byte, table string, parts []*colstore.Batch) ([]byte, error) {
	*sp = (*sp)[:0]
	chunks := make([][][]byte, len(parts))
	size := 2*binary.MaxVarintLen64 + len(table)
	var err error
	for n, part := range parts {
		if part == nil || part.Len() == 0 {
			size++
			continue
		}
		if chunks[n], *sp, err = colstore.ChunkParts(*sp, part); err != nil {
			return nil, err
		}
		for _, c := range chunks[n] {
			size += len(c)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, chunk := range chunks {
		if chunk == nil {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		for _, c := range chunk {
			buf = append(buf, c...)
		}
	}
	return buf, nil
}

// decodeLoad decodes a load record whole: the cut, then each node's part.
// Recovery does the same two steps apart — the cut on the log reader, each
// part's decode on its node's redo worker.
func decodeLoad(body []byte, schemaOf func(table string) (colstore.Schema, error)) (string, []*colstore.Batch, error) {
	table, chunks, err := cutLoad(body)
	if err != nil {
		return "", nil, err
	}
	schema, err := schemaOf(table)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal load record for %q: %w", table, err)
	}
	parts := make([]*colstore.Batch, len(chunks))
	for n, chunk := range chunks {
		if chunk == nil {
			continue
		}
		parts[n] = colstore.NewBatch(schema)
		if err := decodePart(parts[n], table, chunk); err != nil {
			return "", nil, err
		}
	}
	return table, parts, nil
}

// cutLoad splits a load record into its table and per-node chunks, nil for
// a node the load gave no rows, without decoding any of them.
func cutLoad(body []byte) (table string, chunks [][]byte, err error) {
	table, rest, err := cutString(body)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal load record: %w", err)
	}
	nodes, rest, err := cutUvarint(rest)
	if err != nil {
		return "", nil, fmt.Errorf("vertica: wal load record: %w", err)
	}
	if nodes > uint64(len(rest)) { // every node takes at least its zero byte
		return "", nil, fmt.Errorf("vertica: wal load record: %d nodes in %d bytes", nodes, len(rest))
	}
	chunks = make([][]byte, nodes)
	for n := range chunks {
		if len(rest) > 0 && rest[0] == 0 {
			rest = rest[1:]
			continue
		}
		if chunks[n], rest, err = colstore.CutChunk(rest); err != nil {
			return "", nil, fmt.Errorf("vertica: wal load record for %q: %w", table, err)
		}
	}
	return table, chunks, nil
}

// decodePart decodes one node's chunk of a load record into dst, which it
// empties first.
func decodePart(dst *colstore.Batch, table string, chunk []byte) error {
	dst.Reset()
	if _, err := colstore.DecodeChunkInto(dst, chunk); err != nil {
		return fmt.Errorf("vertica: wal load record for %q: %w", table, err)
	}
	return nil
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
