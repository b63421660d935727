package expr

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// buildDeep returns a deeply nested constant expression: a chain of region
// reads whose addresses are offset sums, the shape compiler-generated
// pointer chasing produces. Two independent builds are structurally equal,
// so they exercise the equality path on terms whose canonical keys are
// kilobytes long.
func buildDeep(depth int) *Expr {
	e := V("rsp0")
	for i := 0; i < depth; i++ {
		e = Deref(Add(e, Word(uint64(8+i))), 8)
	}
	return e
}

// BenchmarkEqual measures structural equality of two independently built,
// structurally identical deep terms — the dominant comparison shape in
// predicate joins and solver queries.
func BenchmarkEqual(b *testing.B) {
	x := buildDeep(256)
	y := buildDeep(256)
	if !x.Equal(y) {
		b.Fatal("deep terms must be equal")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("equality lost")
		}
	}
}

// BenchmarkKeyShared measures Key() on a fresh sum over subterms that were
// built (and therefore key-cached) elsewhere — the MemEntries/Clauses
// rendering shape.
func BenchmarkKeyShared(b *testing.B) {
	base := buildDeep(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := Add(base, Word(uint64(i)|1))
		_ = e.Key()
	}
}

// BenchmarkSubstAbsent measures substitution for a variable that does not
// occur in the term (the common case when re-binding join variables).
func BenchmarkSubstAbsent(b *testing.B) {
	e := buildDeep(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Subst(e, "absent", Word(1)) != e {
			b.Fatal("substitution of an absent variable must be identity")
		}
	}
}

var (
	internSink   *Expr
	parallelSink atomic.Pointer[Expr]
)

// BenchmarkIntern measures table hits, the constructors' common case once
// a lift has warmed up: Word (above the preinterned small words), V and
// InternVar on terms already in the table, each serially and from
// GOMAXPROCS goroutines at once. The parallel goroutines walk the same
// terms from different offsets, as lift workers share a working set
// without visiting it in step.
func BenchmarkIntern(b *testing.B) {
	const n = 256
	var names [n]Var
	var bufs [n][]byte
	for i := range names {
		names[i] = Var(fmt.Sprintf("j40%04x_mrsp0_%d", i*8, 8))
		bufs[i] = []byte(names[i])
		V(names[i])
		Word(uint64(0x401000 + i))
	}
	cases := []struct {
		name string
		hit  func(i int) *Expr
	}{
		{"Word", func(i int) *Expr { return Word(uint64(0x401000 + i%n)) }},
		{"V", func(i int) *Expr { return V(names[i%n]) }},
		{"InternVar", func(i int) *Expr { return InternVar(bufs[i%n]) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				internSink = c.hit(i)
			}
		})
		b.Run(c.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			var worker atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				var e *Expr
				for i := int(worker.Add(1)) * n / 8; pb.Next(); i++ {
					e = c.hit(i)
				}
				parallelSink.Store(e)
			})
		})
	}
}
