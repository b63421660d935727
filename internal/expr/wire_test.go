package expr

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// wireSamples builds a DAG with heavy sharing: compiler-style address
// arithmetic where a handful of symbolic bases recur everywhere.
func wireSamples() []*Expr {
	rsp := V("rsp0")
	rdi := V("rdi0")
	frame := App(OpAdd, rsp, Word(0xffffffffffffffc0))
	idx := App(OpMul, Word(8), V("j401064_rcx"))
	slot := App(OpAdd, frame, idx)
	return []*Expr{
		rsp, rdi, frame, idx, slot,
		Deref(slot, 8),
		Deref(frame, 4),
		App(OpAnd, rdi, Word(0xffffffff)),
		App(OpSExt32, App(OpAnd, rdi, Word(0xffffffff))),
		Word(0),
		Word(1 << 62),
	}
}

func TestTableDedupsSharedSubterms(t *testing.T) {
	exprs := wireSamples()
	tab := NewTable()
	for _, e := range exprs {
		tab.Add(e)
	}
	// rsp0, the frame sum, and the and() node each appear under several
	// parents; dedup keeps the table strictly smaller than the sum of the
	// trees' sizes.
	total := 0
	var count func(e *Expr) int
	count = func(e *Expr) int {
		n := 1
		for _, a := range e.args {
			n += count(a)
		}
		return n
	}
	for _, e := range exprs {
		total += count(e)
	}
	if tab.Len() >= total {
		t.Fatalf("no dedup: table %d nodes, naive %d", tab.Len(), total)
	}
	// Children precede parents: every argument index is smaller.
	for i, e := range exprs {
		_ = i
		for _, a := range e.args {
			if tab.Index(a) >= tab.Index(e) {
				t.Fatalf("child %s not before parent %s", a.Key(), e.Key())
			}
		}
	}
}

func TestTableRoundTripRestoresPointerIdentity(t *testing.T) {
	exprs := wireSamples()
	tab := NewTable()
	idx := make([]uint32, len(exprs))
	for i, e := range exprs {
		idx[i] = tab.Add(e)
	}
	buf := AppendTable(nil, tab)

	d := wire.NewDecoder(buf)
	nodes, err := DecodeTable(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rest()) != 0 {
		t.Fatalf("trailing bytes: %d", len(d.Rest()))
	}
	if len(nodes) != tab.Len() {
		t.Fatalf("node count %d, want %d", len(nodes), tab.Len())
	}
	// Interned pointer identity is restored, not just structural equality.
	for i, e := range exprs {
		if nodes[idx[i]] != e {
			t.Fatalf("node %d (%s) decoded to a different pointer", idx[i], e.Key())
		}
	}
}

func TestTableReserializeByteIdentical(t *testing.T) {
	tab := NewTable()
	for _, e := range wireSamples() {
		tab.Add(e)
	}
	buf := AppendTable(nil, tab)

	nodes, err := DecodeTable(wire.NewDecoder(buf))
	if err != nil {
		t.Fatal(err)
	}
	tab2 := NewTable()
	for _, e := range nodes {
		tab2.Add(e)
	}
	buf2 := AppendTable(nil, tab2)
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("re-serialization differs:\n%x\nvs\n%x", buf, buf2)
	}
}

func TestDecodeTableRejectsCorruption(t *testing.T) {
	tab := NewTable()
	for _, e := range wireSamples() {
		tab.Add(e)
	}
	good := AppendTable(nil, tab)

	// Checksum flip.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if _, err := DecodeTable(wire.NewDecoder(bad)); err == nil {
		t.Fatal("flipped checksum accepted")
	}
	// Truncations at every prefix must error, never panic or succeed.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeTable(wire.NewDecoder(good[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDecodeTableRejectsMalformedNodes(t *testing.T) {
	cases := map[string][]byte{
		// count 1, unknown tag 0x7f
		"unknown tag": append(wire.AppendUvarint(nil, 1), 0x7f),
		// count 1, deref of size 9
		"deref size": func() []byte {
			b := wire.AppendUvarint(nil, 1)
			b = append(b, tagDeref)
			b = wire.AppendUvarint(b, 9)
			return wire.AppendUvarint(b, 0)
		}(),
		// count 1, deref referencing itself (index 0 not yet defined)
		"forward ref": func() []byte {
			b := wire.AppendUvarint(nil, 1)
			b = append(b, tagDeref)
			b = wire.AppendUvarint(b, 8)
			return wire.AppendUvarint(b, 0)
		}(),
		// count 1, op with absurd arity
		"op arity": func() []byte {
			b := wire.AppendUvarint(nil, 1)
			b = append(b, tagOp)
			b = wire.AppendUvarint(b, uint64(OpNot))
			return wire.AppendUvarint(b, 5)
		}(),
		// count 1, variadic op whose arity exceeds the input (a decoder
		// that allocated for it before reading would ask for 8 TiB)
		"variadic arity": func() []byte {
			b := wire.AppendUvarint(nil, 1)
			b = append(b, tagOp)
			b = wire.AppendUvarint(b, uint64(OpAdd))
			return wire.AppendUvarint(b, 1<<40)
		}(),
		// count 1, unknown operator id
		"unknown op": func() []byte {
			b := wire.AppendUvarint(nil, 1)
			b = append(b, tagOp)
			b = wire.AppendUvarint(b, 0xffff)
			return wire.AppendUvarint(b, 1)
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeTable(wire.NewDecoder(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeTableInternsNamesFromBytes pins the decoder's byte-keyed
// interning: decoding a table whose variables the process already holds
// allocates no variable name, only the node list and the cursor.
func TestDecodeTableInternsNamesFromBytes(t *testing.T) {
	const vars = 64
	tab := NewTable()
	for i := 0; i < vars; i++ {
		tab.Add(V(Var(fmt.Sprintf("decode_probe_%d", i))))
	}
	data := AppendTable(nil, tab)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeTable(wire.NewDecoder(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("decoding %d interned variables allocates %.0f times, want at most 3", vars, allocs)
	}
}
