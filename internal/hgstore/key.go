// Package hgstore is the function-level content-addressed cache of lifted
// Hoare graphs: the "incremental lifting" piece of the roadmap. The
// paper's CI scenario re-lifts overlapping corpora in which most functions
// are byte-identical between runs, yet Step 1 pays the full
// symbolic-execution cost every time. Because each function is lifted
// context-free from the exact same initial state, a lift's outcome is a
// pure function of (the code bytes it read, the lifter configuration, the
// lifter itself) — so the triple is a sound cache key, and a cached graph
// is as trustworthy as a fresh one: Step 2 can always re-verify it without
// trusting the writer.
//
// Storage is a single compact container file ("HGCS" v2) reusing the PR 6
// wire codecs: one interned-expression table per entry (shared subterms
// emitted once, decode restores pointer identity through the smart
// constructors) and the binary Hoare-graph record of internal/hoare. A
// checksum guards every payload; corrupt, truncated, or
// version-mismatched entries are misses, never errors.
package hgstore

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/image"
	"repro/internal/wire"
)

// LifterVersion names the lifter + semantics generation whose outputs the
// store holds. Bump it whenever a change to the lifter, the semantics, or
// the wire formats could alter a lift's outcome or its encoding: entries
// stamped with another version are dropped on open (a miss, not an
// error), so a stale store heals itself by re-lifting. Version 4: a graph
// lists only the hypotheses its own exploration makes, not those of the
// callees explored inside its lift, whose graphs list them (version 3:
// the opcode table changed what some bytes decode to).
const LifterVersion = "hg-lifter/4"

// Key addresses one cached lift outcome. Two lifts with equal keys read
// the same primary code bytes under the same configuration and lifter
// generation; the entry's dependency ranges (see entry.go) close the gap
// for callee code the primary hash does not cover.
type Key struct {
	// Code is the content hash of the task's primary code bytes: the
	// function's own bytes (function tasks) or the whole ELF (binary
	// tasks), mixed with the entry address.
	Code uint64
	// Cfg is the configuration fingerprint (ConfigFingerprint).
	Cfg uint64
	// Addr is the function entry address (0 for binary tasks).
	Addr uint64
	// Binary distinguishes whole-binary lifts from single-function lifts.
	Binary bool
}

// hashSeed is an arbitrary odd constant separating the store's hash
// domain from the expression fingerprints built on the same mixer.
const hashSeed uint64 = 0x9e3779b97f4a7c15

// hashBytes folds b into h, eight bytes at a time through the splitmix64
// avalanche of expr.MixFP, with the tail length mixed in so prefixes hash
// differently from their extensions.
func hashBytes(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = expr.MixFP(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	var tail uint64
	for i := 0; i < len(b); i++ {
		tail |= uint64(b[i]) << (8 * i)
	}
	return expr.MixFP(h, tail|uint64(len(b))<<56)
}

// hashExec folds every executable section (address and contents) into h:
// the conservative fallback when a function's own extent is unknown.
func hashExec(h uint64, img *image.Image) uint64 {
	for _, s := range img.File().Sections {
		if s.Flags&4 == 0 || s.Data == nil { // SHF_EXECINSTR
			continue
		}
		h = expr.MixFP(h, s.Addr)
		h = hashBytes(h, s.Data)
	}
	return h
}

// symbolSize returns the size of the function symbol at addr, or 0 when
// the binary carries none (stripped, or a toolchain emitting size-0
// symbols).
func symbolSize(img *image.Image, addr uint64) uint64 {
	for _, s := range img.FuncSymbols() {
		if s.Value == addr && s.Size > 0 {
			return s.Size
		}
	}
	return 0
}

// CodeHash computes the primary code hash of a task. Binary tasks hash
// the raw ELF (every byte of the file is reachable input: entry point,
// section layout, all code); function tasks hash the function's own bytes
// when the symbol table gives their extent, falling back to every
// executable section otherwise — a coarser key that still never returns a
// wrong hit, only more misses.
func CodeHash(img *image.Image, addr uint64, binary bool) uint64 {
	if binary {
		h := expr.MixFP(hashSeed, img.Entry())
		if raw := img.Raw(); raw != nil {
			return hashBytes(h, raw)
		}
		return hashExec(h, img)
	}
	h := expr.MixFP(^hashSeed, addr)
	if size := symbolSize(img, addr); size > 0 {
		if b, ok := img.File().ReadAt(addr, int(size)); ok {
			return hashBytes(h, b)
		}
	}
	return hashExec(h, img)
}

// ConfigFingerprint hashes every configuration field that can change a
// lift's outcome. The solver cache and tracer are excluded — they are
// observers, not semantics.
func ConfigFingerprint(cfg *core.Config) uint64 {
	c := core.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	var buf []byte
	buf = appendBool(buf, c.Sem.MM.ForkUnknown)
	buf = appendBool(buf, c.Sem.MM.AssumePartialImpossible)
	buf = wire.AppendUvarint(buf, uint64(c.Sem.MM.MaxModels))
	buf = wire.AppendUvarint(buf, uint64(c.Sem.MaxTableEntries))
	buf = appendBool(buf, c.Sem.AssumeBaseSeparation)
	buf = wire.AppendUvarint(buf, uint64(c.MaxStates))
	buf = appendBool(buf, c.NoJoin)
	buf = appendBool(buf, c.JoinCodePointers)
	buf = wire.AppendUvarint(buf, uint64(len(c.Terminating)))
	for _, s := range c.Terminating {
		buf = wire.AppendString(buf, s)
	}
	buf = wire.AppendUvarint(buf, uint64(len(c.ConcurrencyPrefixes)))
	for _, s := range c.ConcurrencyPrefixes {
		buf = wire.AppendString(buf, s)
	}
	buf = appendBool(buf, c.PointerFacts)
	return hashBytes(hashSeed, buf)
}

// TaskKey assembles the full cache key for one pipeline task.
func TaskKey(img *image.Image, addr uint64, binary bool, cfg *core.Config) Key {
	return Key{
		Code:   CodeHash(img, addr, binary),
		Cfg:    ConfigFingerprint(cfg),
		Addr:   addr,
		Binary: binary,
	}
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodeBool(d *wire.Decoder, what string) bool {
	switch d.Byte(what) {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("%s flag is neither 0 nor 1", what)
		return false
	}
}
