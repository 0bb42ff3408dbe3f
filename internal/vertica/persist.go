package vertica

import (
	"encoding/json"
	"fmt"

	"verticadr/internal/catalog"
	"verticadr/internal/colstore"
)

// catalogFile is the catalog manifest inside a checkpoint image, written
// next to the segment files by Checkpoint and read back by recovery.
const catalogFile = "catalog.json"

type persistedColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type persistedTable struct {
	Name      string            `json:"name"`
	Columns   []persistedColumn `json:"columns"`
	SegKind   string            `json:"segmentation"`
	SegColumn string            `json:"seg_column,omitempty"`
}

type persistedIndex struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Column string `json:"column"`
}

type persistedCatalog struct {
	Nodes   int              `json:"nodes"`
	Tables  []persistedTable `json:"tables"`
	Indexes []persistedIndex `json:"indexes,omitempty"`
}

// tableManifest renders one table definition into its manifest form (shared
// by checkpoint images and WAL create-table records).
func tableManifest(def *catalog.TableDef) persistedTable {
	pt := persistedTable{Name: def.Name}
	for _, c := range def.Schema {
		pt.Columns = append(pt.Columns, persistedColumn{Name: c.Name, Type: c.Type.String()})
	}
	switch def.Seg.Kind {
	case catalog.SegHash:
		pt.SegKind = "hash"
		pt.SegColumn = def.Seg.Column
	default:
		pt.SegKind = "roundrobin"
	}
	return pt
}

// manifestTableDef is the inverse of tableManifest.
func manifestTableDef(pt persistedTable) (*catalog.TableDef, error) {
	schema := make(colstore.Schema, 0, len(pt.Columns))
	for _, c := range pt.Columns {
		typ, err := colstore.ParseType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("vertica: table %q: %w", pt.Name, err)
		}
		schema = append(schema, colstore.ColumnSchema{Name: c.Name, Type: typ})
	}
	def := &catalog.TableDef{Name: pt.Name, Schema: schema}
	if pt.SegKind == "hash" {
		def.Seg = catalog.Segmentation{Kind: catalog.SegHash, Column: pt.SegColumn}
	}
	return def, nil
}

// encodeCatalogManifest renders the full catalog manifest document.
func encodeCatalogManifest(nodes int, defs []*catalog.TableDef, idxs []IndexDef) ([]byte, error) {
	pc := persistedCatalog{Nodes: nodes}
	for _, def := range defs {
		pc.Tables = append(pc.Tables, tableManifest(def))
	}
	for _, d := range idxs {
		pc.Indexes = append(pc.Indexes, persistedIndex{Name: d.Name, Table: d.Table, Column: d.Column})
	}
	return json.MarshalIndent(pc, "", "  ")
}

// parseCatalogManifest is the inverse of encodeCatalogManifest.
func parseCatalogManifest(data []byte) (*persistedCatalog, error) {
	var pc persistedCatalog
	if err := json.Unmarshal(data, &pc); err != nil {
		return nil, fmt.Errorf("vertica: parse catalog manifest: %w", err)
	}
	return &pc, nil
}
