package hgstore

// Standalone graph files: one graph in the HGCS container, so the graph
// hglift -o saves is provable and lintable by hgprove/hglint -hg.
//
//	graphfile = "HGCS" version(uvarint) filekind(byte 'G')
//	            body(length-prefixed bytes) checksum(u64 raw)
//	body      = EXPR-TABLE GRAPH
//
// Instructions are stored by address only and re-fetched from the binary
// image on load, so a saved graph cannot silently drift from its binary.

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/image"
	"repro/internal/wire"
)

// MarshalGraph renders one graph as a standalone graph file.
func MarshalGraph(g *hoare.Graph) []byte {
	t := expr.NewTable()
	hoare.CollectWireExprs(t, g)
	body := expr.AppendTable(nil, t)
	body = hoare.AppendWire(body, t, g)

	buf := []byte(Magic)
	buf = wire.AppendUvarint(buf, Version)
	buf = append(buf, fileKindGraph)
	buf = wire.AppendBytes(buf, body)
	return wire.AppendUint64(buf, hashBytes(hashSeed, body))
}

// LoadGraph decodes a standalone graph file against the image. Unlike
// store lookups, a file the user named explicitly fails loudly:
// corruption here is an input error, not a cache miss.
func LoadGraph(img *image.Image, data []byte) (*hoare.Graph, error) {
	d := wire.NewDecoder(data)
	if string(d.Bytes(uint64(len(Magic)), "magic")) != Magic {
		return nil, fmt.Errorf("hgstore: not an HGCS graph file")
	}
	if v := d.Uvarint("container version"); d.Err() == nil && v != Version {
		return nil, fmt.Errorf("hgstore: unsupported container version %d (have %d)", v, Version)
	}
	if k := d.Byte("file kind"); d.Err() == nil && k != fileKindGraph {
		return nil, fmt.Errorf("hgstore: file kind %q is not a standalone graph", k)
	}
	body := d.ByteSlice("graph body")
	sum := d.Uint64("graph checksum")
	if err := d.Err(); err != nil {
		return nil, err
	}
	if sum != hashBytes(hashSeed, body) {
		return nil, fmt.Errorf("hgstore: graph checksum mismatch (corrupt file)")
	}
	bd := wire.NewDecoder(body)
	nodes, err := expr.DecodeTable(bd)
	if err != nil {
		return nil, err
	}
	g, err := hoare.DecodeWire(bd, nodes, img)
	if err != nil {
		return nil, err
	}
	if len(bd.Rest()) != 0 {
		return nil, fmt.Errorf("hgstore: %d trailing bytes after graph record", len(bd.Rest()))
	}
	return g, nil
}
