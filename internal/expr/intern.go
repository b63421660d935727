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
// the fingerprint. Each shard is an open-addressing array of slots, at most
// half full: a slot holds an atomic fingerprint and an atomic node pointer,
// and a probe runs linearly from the fingerprint bits above the shard
// index. A lookup loads the shard's current array and probes it without a
// lock, so a hit (nearly every call once a lift has warmed up) costs
// atomic loads and one shallow compare. Only a miss locks the shard: it
// probes the current array again and inserts, storing the fingerprint
// before the pointer. An insert that would fill the array past half first
// copies the entries into one twice the size and publishes it atomically.
// A reader still probing the old array sees only canonical nodes; a term
// inserted after the copy is a miss there and takes the locked path.
// Per-shard hit/miss counters feed the intern.* gauges of the obs metrics
// dump.

import (
	"sync"
	"sync/atomic"
)

const (
	shardBits = 6
	numShards = 1 << shardBits

	// initSlots is each shard's first array: 64 × 64 slots hold about 2K
	// terms before a shard grows, several times the working set of the
	// ptr_ corpus. A Table 1 lift (about 20K terms) grows each shard four
	// times, which copies each term at most twice over in all.
	initSlots = 64
)

// slot is one entry of a shard's array: empty while e is nil. An insert
// stores fp before e, so a reader that sees e also sees its fingerprint.
type slot struct {
	fp atomic.Uint64
	e  atomic.Pointer[Expr]
}

// slotArray is a shard's power-of-two slot array.
type slotArray struct {
	mask  uint64 // len(slots) - 1
	slots []slot
}

func newSlotArray(n int) *slotArray {
	return &slotArray{mask: uint64(n - 1), slots: make([]slot, n)}
}

// start is fp's first probe position: the fingerprint bits above the
// shard index, which selected this shard.
func (a *slotArray) start(fp uint64) uint64 { return (fp >> shardBits) & a.mask }

// put stores e in the first empty slot of its probe sequence.
func (a *slotArray) put(e *Expr) {
	i := a.start(e.fp)
	for a.slots[i].e.Load() != nil {
		i = (i + 1) & a.mask
	}
	a.slots[i].fp.Store(e.fp)
	a.slots[i].e.Store(e)
}

type internShard struct {
	arr    atomic.Pointer[slotArray] // read without mu, replaced under it
	hits   atomic.Uint64
	mu     sync.Mutex
	misses uint64   // guarded by mu; also the shard's entry count
	_      [32]byte // pad to a cache line: neighbouring shards' hit counters do not share one
}

// internTable is a hash-consing table of numShards shards, selected by the
// low bits of a fingerprint. The constructors intern into global; a test
// builds its own table to watch one grow from small arrays.
type internTable struct {
	shards [numShards]internShard
}

var global internTable

func (t *internTable) init(slots int) {
	for i := range t.shards {
		t.shards[i].arr.Store(newSlotArray(slots))
	}
}

// smallWords short-circuits the table for the constants the semantics
// layer builds constantly (0, 1, 8, masks' low bytes, small offsets).
var smallWords [256]*Expr

func init() {
	global.init(initSlots)
	for i := range smallWords {
		smallWords[i] = global.intern(KindWord, uint64(i), "", 0, 0, nil, fpWord(uint64(i)))
	}
}

// debugEqual enables the debug cross-checks of the per-node caches:
// interning makes structural equality coincide with pointer identity, and
// when it is set every Equal verifies that invariant and every cached
// ToLinear recomputes its form, each panicking on a mismatch. It is off in
// every build; a test sets it to exercise the checks.
var debugEqual bool

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
// on first sight. A slot matches when its fingerprint is fp and shallowEq
// agrees, so a fingerprint collision costs a compare, never a wrong node.
// The probe loop is written out in each of its three places (here twice,
// and in internVar): as a function it does not inline, and the call costs
// a measurable share of a hit.
func (t *internTable) intern(kind Kind, word uint64, v Var, op Op, size uint8, args []*Expr, fp uint64) *Expr {
	s := &t.shards[fp&(numShards-1)]
	a := s.arr.Load()
	for i := a.start(fp); ; i = (i + 1) & a.mask {
		e := a.slots[i].e.Load()
		if e == nil {
			break
		}
		if a.slots[i].fp.Load() == fp && e.shallowEq(kind, word, v, op, size, args) {
			s.hits.Add(1)
			return e
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a = s.arr.Load()
	for i := a.start(fp); ; i = (i + 1) & a.mask {
		e := a.slots[i].e.Load()
		if e == nil {
			break
		}
		if a.slots[i].fp.Load() == fp && e.shallowEq(kind, word, v, op, size, args) {
			s.hits.Add(1) // another worker inserted it since the first probe
			return e
		}
	}
	if len(args) > 0 {
		// Defensive copy: the node is immortal, the caller's slice is not
		// necessarily private. Only paid on first interning.
		args = append([]*Expr(nil), args...)
	}
	e := &Expr{kind: kind, word: word, v: v, op: op, size: size, args: args, fp: fp}
	s.insert(e)
	return e
}

// insert adds e, which the shard does not hold, under s.mu. An insert
// that would fill the array past half first publishes a copy twice the
// size.
func (s *internShard) insert(e *Expr) {
	a := s.arr.Load()
	if 2*(s.misses+1) > uint64(len(a.slots)) {
		grown := newSlotArray(2 * len(a.slots))
		for i := range a.slots {
			if old := a.slots[i].e.Load(); old != nil {
				grown.put(old)
			}
		}
		s.arr.Store(grown)
		a = grown
	}
	a.put(e)
	s.misses++
}

// InternVar returns V(Var(name)) without allocating the name when the
// variable is already interned: a decoder reads names as bytes, the join
// builds its variables' names in a stack buffer, and most of them name
// variables the process has seen. A hit counts as V's would; a miss falls
// through to V's path, which allocates the name and counts the miss. The
// caller keeps its buffer: the interned name is a copy.
func InternVar(name []byte) *Expr { return global.internVar(name) }

func (t *internTable) internVar(name []byte) *Expr {
	fp := fpVar(name)
	s := &t.shards[fp&(numShards-1)]
	a := s.arr.Load()
	for i := a.start(fp); ; i = (i + 1) & a.mask {
		e := a.slots[i].e.Load()
		if e == nil {
			break
		}
		if a.slots[i].fp.Load() == fp && e.kind == KindVar && string(e.v) == string(name) {
			s.hits.Add(1)
			return e
		}
	}
	return t.intern(KindVar, 0, Var(name), 0, 0, nil, fp)
}

// InternStats is a snapshot of the process-global intern table.
type InternStats struct {
	Hits    uint64 // constructor calls answered by an existing node
	Misses  uint64 // constructor calls that allocated a new node
	Entries uint64 // live interned nodes (the table never evicts)
}

// TableStats sums the per-shard counters of the constructors' table.
// Entries equals Misses by construction (append-only table).
func TableStats() InternStats { return global.stats() }

func (t *internTable) stats() InternStats {
	var st InternStats
	for i := range t.shards {
		s := &t.shards[i]
		st.Hits += s.hits.Load()
		s.mu.Lock()
		st.Misses += s.misses
		s.mu.Unlock()
	}
	st.Entries = st.Misses
	return st
}

// structuralEq is the pre-interning equality: a full recursive walk. It
// survives as the debug-mode cross-check (debugEqual) and as the oracle
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
