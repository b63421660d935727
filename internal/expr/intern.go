package expr

// Hash-consing. Every expression is interned: the constructors route
// through a process-global table keyed by a 64-bit structural fingerprint,
// so structurally equal expressions are pointer-identical and equality,
// map keys and cache keys reduce to integer (pointer) compares. Because
// arguments are interned before the node that holds them, the table only
// ever compares one level deep: two candidate nodes are the same term iff
// their scalar fields match and their argument pointers match.
//
// The table is append-only and never invalidated: expressions are
// immutable, so a canonical node stays valid for the life of the process,
// and eviction would break the pointer-identity invariant that the rest of
// the lifter now relies on (pointer-keyed maps in pred, fingerprint memo
// keys in solver). The corpus working set — compiler-generated address
// arithmetic over a handful of symbolic bases — is small and heavily
// repeated, which is what makes hash-consing pay in the first place.
//
// Sharding: the table is split into 64 shards selected by the low bits of
// the fingerprint, each guarded by its own mutex, so concurrent lift
// workers (the tier-1 -race pass runs the pipeline at 4+ workers) rarely
// contend. Per-shard hit/miss counters feed the intern.* gauges of the
// obs metrics dump.

import (
	"os"
	"sync"
)

const numShards = 64

type internShard struct {
	mu      sync.Mutex
	buckets map[uint64][]*Expr
	hits    uint64
	misses  uint64
}

var shards [numShards]internShard

// smallWords short-circuits the table for the constants the semantics
// layer builds constantly (0, 1, 8, masks' low bytes, small offsets).
var smallWords [256]*Expr

func init() {
	for i := range shards {
		shards[i].buckets = map[uint64][]*Expr{}
	}
	for i := range smallWords {
		smallWords[i] = intern(KindWord, uint64(i), "", 0, 0, nil, fpWord(uint64(i)))
	}
}

// debugEqual enables the debug cross-checks of the per-node caches:
// interning makes structural equality coincide with pointer identity, and
// under EXPRDEBUG=1 every Equal verifies that invariant and every cached
// ToLinear recomputes its form, each panicking on a mismatch.
var debugEqual = os.Getenv("EXPRDEBUG") != ""

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on 64-bit
// words. Raw FNV-style folding correlates structured inputs (constant
// offsets differing in one byte); the finalizer de-correlates them.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MixFP combines a running fingerprint with another 64-bit quantity. It is
// exported for fingerprint-derived cache keys outside this package (the
// solver's memo key mixes region fingerprints with sizes).
func MixFP(h, x uint64) uint64 { return mix64(h ^ mix64(x)) }

// Per-kind fingerprint seeds: arbitrary odd constants, distinct so that
// e.g. Word(0) and V("") cannot collide structurally.
const (
	seedWord  = 0xa0761d6478bd642f
	seedVar   = 0xe7037ed1a0b428db
	seedDeref = 0x8ebc6af09c88c6e3
	seedOp    = 0x589965cc75374cc3
)

func fpWord(w uint64) uint64 { return MixFP(seedWord, w) }

func fpVar[N Var | []byte](name N) uint64 {
	// FNV-1a over the name bytes, then avalanche through the finalizer.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return MixFP(seedVar, h)
}

func fpDeref(size uint8, addrFP uint64) uint64 {
	return MixFP(MixFP(seedDeref, uint64(size)), addrFP)
}

func fpOp(op Op, args []*Expr) uint64 {
	h := MixFP(seedOp, uint64(op))
	for _, a := range args {
		h = MixFP(h, a.fp)
	}
	return h
}

// shallowEq reports whether the interned node e is the term described by
// the constructor arguments. Argument expressions are already interned, so
// one level of pointer compares decides deep structural equality.
func (e *Expr) shallowEq(kind Kind, word uint64, v Var, op Op, size uint8, args []*Expr) bool {
	if e.kind != kind || e.word != word || e.v != v || e.op != op ||
		e.size != size || len(e.args) != len(args) {
		return false
	}
	for i, a := range args {
		if e.args[i] != a {
			return false
		}
	}
	return true
}

// intern returns the canonical node for the described term, allocating it
// on first sight. Fingerprint collisions are resolved by the per-bucket
// list: shallowEq decides exactly, so a collision costs a few pointer
// compares, never a wrong node.
func intern(kind Kind, word uint64, v Var, op Op, size uint8, args []*Expr, fp uint64) *Expr {
	s := &shards[fp&(numShards-1)]
	s.mu.Lock()
	for _, e := range s.buckets[fp] {
		if e.shallowEq(kind, word, v, op, size, args) {
			s.hits++
			s.mu.Unlock()
			return e
		}
	}
	s.misses++
	if len(args) > 0 {
		// Defensive copy: the node is immortal, the caller's slice is not
		// necessarily private. Only paid on first interning.
		args = append([]*Expr(nil), args...)
	}
	e := &Expr{kind: kind, word: word, v: v, op: op, size: size, args: args, fp: fp}
	s.buckets[fp] = append(s.buckets[fp], e)
	s.mu.Unlock()
	return e
}

// InternVar returns V(Var(name)) without allocating the name when the
// variable is already interned: a decoder reads names as bytes, the join
// builds its variables' names in a stack buffer, and most of them name
// variables the process has seen. A hit counts as V's would; a miss falls
// through to V, which allocates the name and counts the miss. The caller
// keeps its buffer: the interned name is a copy.
func InternVar(name []byte) *Expr {
	fp := fpVar(name)
	s := &shards[fp&(numShards-1)]
	s.mu.Lock()
	for _, e := range s.buckets[fp] {
		if e.kind == KindVar && string(e.v) == string(name) {
			s.hits++
			s.mu.Unlock()
			return e
		}
	}
	s.mu.Unlock()
	return V(Var(name))
}

// InternStats is a snapshot of the process-global intern table.
type InternStats struct {
	Hits    uint64 // constructor calls answered by an existing node
	Misses  uint64 // constructor calls that allocated a new node
	Entries uint64 // live interned nodes (the table never evicts)
}

// TableStats sums the per-shard counters. Entries equals Misses by
// construction (append-only table).
func TableStats() InternStats {
	var st InternStats
	for i := range shards {
		s := &shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		s.mu.Unlock()
	}
	st.Entries = st.Misses
	return st
}

// structuralEq is the pre-interning equality: a full recursive walk. It
// survives as the debug-mode cross-check (EXPRDEBUG=1) and as the oracle
// of FuzzInternCanonical.
func structuralEq(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.kind != b.kind || a.word != b.word || a.v != b.v || a.op != b.op ||
		a.size != b.size || len(a.args) != len(b.args) {
		return false
	}
	for i := range a.args {
		if !structuralEq(a.args[i], b.args[i]) {
			return false
		}
	}
	return true
}
