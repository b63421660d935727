package expr

// Compact binary serialization of the interned-expression DAG. The text
// formats (Key, the .hg grammar) re-render every occurrence of a shared
// subterm; at corpus scale that dominates export size, because compiler-
// generated address arithmetic reuses a handful of symbolic bases
// everywhere. The wire form instead serialises a Table: a deduplicated,
// topologically-ordered list of nodes in which every interned node appears
// exactly once — children strictly before parents — and consumers
// reference nodes by dense index. Dedup keys on interned pointer identity,
// which by the hash-consing invariant coincides with structural
// (fingerprint) identity: shared subterms are emitted once.
//
// Table wire format (integers are uvarints unless noted):
//
//	table = node-count node* checksum
//	node  = 0x00 word-value                  KindWord
//	      | 0x01 name-len name-bytes         KindVar
//	      | 0x02 size child-index            KindDeref
//	      | 0x03 op argc child-index*        KindOp
//
// checksum is 8 raw little-endian bytes: the MixFP-fold of every node's
// structural fingerprint in index order. The decoder recomputes the fold
// over the nodes it rebuilt and rejects a mismatch, so truncation, bit
// corruption, or a table whose nodes do not canonicalise to themselves
// cannot silently produce a wrong (but well-formed) DAG.
//
// Decoding rebuilds each node bottom-up through the same smart
// constructors the lifter uses (Word, V, Deref, App). Serialised nodes
// came out of those constructors, so they are fixed points of them, and
// the decoder therefore restores interned pointer identity: decoding a
// table in a process that already holds the expressions yields
// pointer-equal nodes, and Append∘Decode∘Append is the byte identity.

import (
	"repro/internal/wire"
)

// Table assigns dense indices to a set of interned expressions, children
// before parents, each node exactly once. The zero value is not ready;
// use NewTable.
type Table struct {
	idx   map[*Expr]uint32
	nodes []*Expr
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{idx: map[*Expr]uint32{}}
}

// Add inserts e and (recursively) its subterms, returning e's index.
// Adding an already-present node is a map probe, no allocation.
func (t *Table) Add(e *Expr) uint32 {
	if i, ok := t.idx[e]; ok {
		return i
	}
	for _, a := range e.args {
		t.Add(a)
	}
	i := uint32(len(t.nodes))
	t.idx[e] = i
	t.nodes = append(t.nodes, e)
	return i
}

// Index returns the index previously assigned to e by Add. It panics on a
// node that was never added: encoders collect before they emit, so a miss
// is a bug, not an input error.
func (t *Table) Index(e *Expr) uint32 {
	i, ok := t.idx[e]
	if !ok {
		panic("expr: Table.Index: expression was never added")
	}
	return i
}

// Len returns the number of nodes in the table.
func (t *Table) Len() int { return len(t.nodes) }

// The node tags of the wire format.
const (
	tagWord  = 0x00
	tagVar   = 0x01
	tagDeref = 0x02
	tagOp    = 0x03
)

// AppendTable appends the wire encoding of the table to buf.
func AppendTable(buf []byte, t *Table) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(t.nodes)))
	sum := uint64(0)
	for _, e := range t.nodes {
		sum = MixFP(sum, e.fp)
		switch e.kind {
		case KindWord:
			buf = append(buf, tagWord)
			buf = wire.AppendUvarint(buf, e.word)
		case KindVar:
			buf = append(buf, tagVar)
			buf = wire.AppendString(buf, string(e.v))
		case KindDeref:
			buf = append(buf, tagDeref)
			buf = wire.AppendUvarint(buf, uint64(e.size))
			buf = wire.AppendUvarint(buf, uint64(t.Index(e.args[0])))
		case KindOp:
			buf = append(buf, tagOp)
			buf = wire.AppendUvarint(buf, uint64(e.op))
			buf = wire.AppendUvarint(buf, uint64(len(e.args)))
			for _, a := range e.args {
				buf = wire.AppendUvarint(buf, uint64(t.Index(a)))
			}
		}
	}
	return wire.AppendUint64(buf, sum)
}

// opArity gives the argument counts an operator node may have (max -1 =
// unbounded). App assumes these hold; a decoded node is checked here
// before reaching it.
func opArity(op Op) (min, max int) {
	switch op {
	case OpAdd, OpMul:
		return 1, -1
	case OpNot, OpNeg, OpSExt8, OpSExt16, OpSExt32:
		return 1, 1
	default:
		return 2, 2
	}
}

// DecodeTable decodes one table from the cursor, returning the rebuilt
// (pointer-canonical) nodes in index order.
func DecodeTable(d *wire.Decoder) ([]*Expr, error) {
	n := d.Len("expression node")
	nodes := make([]*Expr, 0, n)
	child := func(what string) *Expr {
		i := d.Uvarint(what)
		if d.Err() != nil {
			return nil
		}
		if i >= uint64(len(nodes)) {
			d.Failf("%s index %d out of range (have %d nodes)", what, i, len(nodes))
			return nil
		}
		return nodes[i]
	}
	for len(nodes) < n && d.Err() == nil {
		switch tag := d.Byte("node tag"); tag {
		case tagWord:
			w := d.Uvarint("word value")
			if d.Err() == nil {
				nodes = append(nodes, Word(w))
			}
		case tagVar:
			name := d.Bytes(d.Uvarint("var name length"), "var name")
			if d.Err() == nil {
				nodes = append(nodes, InternVar(name))
			}
		case tagDeref:
			size := d.Uvarint("deref size")
			addr := child("deref child")
			if d.Err() == nil {
				if size == 0 || size > 8 {
					d.Failf("deref size %d out of range", size)
					break
				}
				nodes = append(nodes, Deref(addr, int(size)))
			}
		case tagOp:
			op := Op(d.Uvarint("op"))
			// Each argument takes at least one byte, so Len's bound on the
			// remaining input bounds the allocation below.
			argc := d.Len("op argument")
			if d.Err() != nil {
				break
			}
			if _, ok := opNames[op]; !ok {
				d.Failf("unknown operator %d", op)
				break
			}
			if min, max := opArity(op); argc < min || (max >= 0 && argc > max) {
				d.Failf("operator %s applied to %d arguments", op, argc)
				break
			}
			args := make([]*Expr, 0, argc)
			for j := 0; j < argc && d.Err() == nil; j++ {
				args = append(args, child("op child"))
			}
			if d.Err() == nil {
				nodes = append(nodes, App(op, args...))
			}
		default:
			d.Failf("unknown node tag %#x", tag)
		}
	}
	want := d.Uint64("table checksum")
	if err := d.Err(); err != nil {
		return nil, err
	}
	sum := uint64(0)
	for _, e := range nodes {
		sum = MixFP(sum, e.fp)
	}
	if want != sum {
		d.Failf("table checksum mismatch (corrupt or non-canonical table)")
		return nil, d.Err()
	}
	return nodes, nil
}
