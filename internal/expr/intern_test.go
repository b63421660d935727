package expr

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternPointerIdentity checks the core hash-consing invariant on a few
// hand-built terms: constructing the same term twice yields the same pointer.
func TestInternPointerIdentity(t *testing.T) {
	mk := func() *Expr {
		return Deref(Add(V("rsp0"), Word(^uint64(0x27))), 8)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("structurally equal terms interned to distinct pointers:\n%s\n%s", a, b)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same pointer, different fingerprint")
	}
	if !a.Equal(b) {
		t.Fatal("Equal false on identical pointer")
	}
	if Word(7) != Word(7) || V("x") != V("x") {
		t.Fatal("leaf constructors not interned")
	}
	if Word(7) == Word(8) || V("x") == V("y") {
		t.Fatal("distinct leaves share a node")
	}
}

// TestInternDistinctTerms checks that near-miss terms (differing in one
// scalar field) get distinct nodes even if fingerprints were to collide.
func TestInternDistinctTerms(t *testing.T) {
	a := Deref(V("p"), 8)
	b := Deref(V("p"), 4)
	if a == b {
		t.Fatal("derefs of different sizes share a node")
	}
	c := newOp(OpShl, V("x"), V("y"))
	d := newOp(OpShr, V("x"), V("y"))
	if c == d {
		t.Fatal("different operators share a node")
	}
}

// TestInternConcurrent hammers the table from many goroutines building the
// same working set, then checks canonicality. Run under -race this also
// exercises the shard locking and the atomic Key/String caches.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	results := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []*Expr
			base := V("rsp0")
			for i := 0; i < 200; i++ {
				e := Deref(Add(base, Word(uint64(i*8))), 8)
				out = append(out, e, Add(e, Word(1)))
				_ = e.Key()
				_ = e.String()
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatal("worker result length mismatch")
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d term %d not canonical", w, i)
			}
		}
	}
}

// TestTableStats checks the hit/miss accounting on a term the test owns.
func TestTableStats(t *testing.T) {
	before := TableStats()
	fresh := fmt.Sprintf("stats_probe_%d", before.Misses)
	V(Var(fresh)) // miss: new node
	V(Var(fresh)) // hit: same node
	after := TableStats()
	if after.Misses < before.Misses+1 {
		t.Fatalf("miss not counted: before %+v after %+v", before, after)
	}
	if after.Hits < before.Hits+1 {
		t.Fatalf("hit not counted: before %+v after %+v", before, after)
	}
	if after.Entries != after.Misses {
		t.Fatalf("entries %d != misses %d in append-only table", after.Entries, after.Misses)
	}
}

// TestInternVarMatchesV pins the decoder's byte-keyed interning against
// V: the same canonical node on a miss and on a hit, the same counter
// movements, and a name that does not alias the caller's buffer.
func TestInternVarMatchesV(t *testing.T) {
	step := func(intern func() *Expr) (*Expr, InternStats) {
		before := TableStats()
		e := intern()
		after := TableStats()
		return e, InternStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	}
	miss := InternStats{Misses: 1}
	hit := InternStats{Hits: 1}

	// A name first seen through InternVar, then through V.
	buf := []byte(fmt.Sprintf("internvar_probe_%d", TableStats().Misses))
	name := string(buf)
	e, d := step(func() *Expr { return InternVar(buf) })
	if d != miss {
		t.Fatalf("InternVar miss moved the counters by %+v, want %+v", d, miss)
	}
	buf[0] = 'X' // the interned name must be a copy
	if e.VarName() != Var(name) {
		t.Fatalf("interned name %q aliases the caller's buffer", e.VarName())
	}
	v, d := step(func() *Expr { return V(Var(name)) })
	if v != e || d != hit {
		t.Fatalf("V after InternVar: same node %v, counters %+v", v == e, d)
	}
	again, d := step(func() *Expr { return InternVar([]byte(name)) })
	if again != e || d != hit {
		t.Fatalf("InternVar hit: same node %v, counters %+v", again == e, d)
	}

	// A name first seen through V, then through InternVar.
	name2 := name + "_v"
	v2, d := step(func() *Expr { return V(Var(name2)) })
	if d != miss {
		t.Fatalf("V miss moved the counters by %+v", d)
	}
	e2, d := step(func() *Expr { return InternVar([]byte(name2)) })
	if e2 != v2 || d != hit {
		t.Fatalf("InternVar after V: same node %v, counters %+v", e2 == v2, d)
	}
}

// FuzzInternCanonical is the tentpole's canonicality oracle: for
// constructor-built pairs, structural equality (the pre-interning
// definition), pointer identity and fingerprint equality must all coincide,
// and the canonical renderings must agree with structural equality.
func FuzzInternCanonical(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0), uint8(1), "rsp0", "rdi0")
	f.Add(uint64(0x28), uint64(0x28), uint8(3), uint8(3), "v17", "v17")
	f.Add(^uint64(0), uint64(1<<40), uint8(7), uint8(2), "a", "b")
	f.Fuzz(func(t *testing.T, w1, w2 uint64, sel1, sel2 uint8, n1, n2 string) {
		build := func(w uint64, sel uint8, name string) *Expr {
			base := V(Var(name))
			switch sel % 8 {
			case 0:
				return Word(w)
			case 1:
				return base
			case 2:
				return Add(base, Word(w))
			case 3:
				return Deref(Add(base, Word(w)), 8)
			case 4:
				return Mul(Word(w|2), base)
			case 5:
				return And(base, Word(w))
			case 6:
				return SExt(Xor(base, Word(w)), 4)
			default:
				return Deref(Sub(base, Word(w%512)), 4)
			}
		}
		a := build(w1, sel1, n1)
		b := build(w2, sel2, n2)
		structural := structuralEq(a, b)
		if (a == b) != structural {
			t.Fatalf("pointer identity %v != structural equality %v\na=%s\nb=%s",
				a == b, structural, a, b)
		}
		if structural && a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("equal terms, different fingerprints: %s", a)
		}
		if (a.Key() == b.Key()) != structural {
			t.Fatalf("Key agreement %v != structural equality %v\na=%s\nb=%s",
				a.Key() == b.Key(), structural, a.Key(), b.Key())
		}
		if structural && a.String() != b.String() {
			t.Fatalf("equal terms render differently: %q vs %q", a.String(), b.String())
		}
		if a.Equal(b) != structural {
			t.Fatal("Equal disagrees with structural equality")
		}
	})
}

// TestInternConcurrentGrowth interns overlapping sequences of fresh terms
// from eight workers into a private table whose shards start at 8 slots,
// so every shard's array is replaced several times while other workers
// probe it without a lock. Each worker walks the whole sequence from its
// own offset (inserting what no one has yet, hitting what others have)
// and looks up an earlier term after each one. Equal terms must get one
// pointer in every worker, every term must be inserted exactly once, and
// the counters must account for every call.
func TestInternConcurrentGrowth(t *testing.T) {
	const (
		workers = 8
		terms   = 60000
		slots   = 8
	)
	var tab internTable
	tab.init(slots)

	// term interns the i-th term of the sequence and returns it with the
	// number of table calls it made: a word, a variable named through
	// internVar, or a sum over a word and a variable.
	term := func(i int) (*Expr, int) {
		var name [16]byte
		w := uint64(i) * 0x9e3779b97f4a7c15
		switch i % 3 {
		case 0:
			return tab.intern(KindWord, w, "", 0, 0, nil, fpWord(w)), 1
		case 1:
			return tab.internVar(fmt.Appendf(name[:0], "g%d", i)), 1
		default:
			args := []*Expr{
				tab.intern(KindWord, w, "", 0, 0, nil, fpWord(w)),
				tab.internVar(fmt.Appendf(name[:0], "g%d", i)),
			}
			return tab.intern(KindOp, 0, "", OpAdd, 0, args, fpOp(OpAdd, args)), 3
		}
	}

	results := make([][]*Expr, workers)
	calls := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*Expr, terms)
			for k := 0; k < terms; k++ {
				i := (k + w*terms/workers) % terms
				e, n := term(i)
				out[i] = e
				calls[w] += n
				if k > 0 {
					j := (i + terms - 1 - k%97) % terms // an earlier term of this walk
					if out[j] == nil {
						continue
					}
					e, n := term(j)
					calls[w] += n
					if e != out[j] {
						t.Errorf("worker %d: term %d re-interned to a new pointer", w, j)
						return
					}
				}
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	distinct := map[*Expr]bool{}
	for i := 0; i < terms; i++ {
		e := results[0][i]
		for w := 1; w < workers; w++ {
			if results[w][i] != e {
				t.Fatalf("term %d: worker %d holds %p, worker 0 holds %p", i, w, results[w][i], e)
			}
		}
		distinct[e] = true
		for _, a := range e.args {
			distinct[a] = true
		}
	}
	st := tab.stats()
	total := 0
	for _, n := range calls {
		total += n
	}
	if st.Entries != st.Misses || st.Misses != uint64(len(distinct)) {
		t.Errorf("entries %d, misses %d, distinct terms %d", st.Entries, st.Misses, len(distinct))
	}
	if st.Hits+st.Misses != uint64(total) {
		t.Errorf("hits %d + misses %d != %d calls", st.Hits, st.Misses, total)
	}
	for i := range tab.shards {
		s := &tab.shards[i]
		a := s.arr.Load()
		if n := len(a.slots); n < 8*slots || 2*s.misses > uint64(n) {
			t.Errorf("shard %d: %d slots for %d entries, want at least %d slots, at most half full", i, n, s.misses, 8*slots)
		}
		held := 0
		for j := range a.slots {
			if a.slots[j].e.Load() != nil {
				held++
			}
		}
		if uint64(held) != s.misses {
			t.Errorf("shard %d holds %d nodes, inserted %d", i, held, s.misses)
		}
	}
}
