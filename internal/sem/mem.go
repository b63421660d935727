package sem

import (
	"repro/internal/expr"
	"repro/internal/memmodel"
	"repro/internal/pred"
	"repro/internal/solver"
)

// readMem reads the region [addr, size], forking the state per produced
// memory model. Reads of bounded symbolic addresses into read-only data
// enumerate the possible values ("one edge per read value" — the
// jump-table case of Section 2); unresolvable reads produce a fresh
// symbolic value recorded as a new memory clause.
func (m *Machine) readMem(st *State, addr *expr.Expr, size int) []valState {
	// Exact clause hit.
	if v, ok := st.Pred.ReadMem(addr, size); ok {
		return []valState{{st, v}}
	}

	// Concrete address in read-only data: the binary's bytes are the value.
	if w, ok := addr.AsWord(); ok {
		if v, ok := m.Img.ReadRO(w, size); ok {
			return []valState{{st, expr.Word(v)}}
		}
	}

	// Bounded symbolic address over read-only data: enumerate (jump
	// tables, switch dispatch).
	if vals, ok := m.enumerateTable(st.Pred, addr, size); ok {
		out := make([]valState, 0, len(vals))
		for i, v := range vals {
			s := st
			if i < len(vals)-1 {
				s = m.clone(st)
			}
			out = append(out, valState{s, expr.Word(v)})
		}
		return out
	}

	// Non-evaluable region (the eval-⊥ case of Definition 4.2): the
	// region is not inserted into the memory model; the read produces a
	// fresh symbolic value, recorded so repeated reads agree.
	if !insertable(addr) {
		v := m.fresh()
		st.Pred.WriteMem(addr, size, v)
		return []valState{{st, v}}
	}

	// General case: insert the region into the memory model; derive the
	// value per produced model.
	results, fellBack := memmodel.InsCounted(memmodel.NewRegion(addr, uint64(size)), st.Mem, oracle{m, st}, m.Cfg.MM)
	m.noteIns(results, fellBack)
	out := make([]valState, 0, len(results))
	freshVal := m.fresh() // same variable in every fork: deterministic
	for i, res := range results {
		s := st
		if i < len(results)-1 {
			s = m.clone(st)
		}
		s.Mem = res.Forest
		v := m.valueUnder(s.Pred, addr, size, &res)
		if v == nil {
			v = freshVal
		}
		s.Pred.WriteMem(addr, size, v)
		out = append(out, valState{s, v})
	}
	return out
}

// valueUnder derives the read value from existing memory clauses given the
// relations of the produced model: an aliasing clause supplies its value
// directly; an enclosing clause with a computable offset supplies the byte
// slice.
func (m *Machine) valueUnder(p *pred.Pred, addr *expr.Expr, size int, res *memmodel.InsResult) *expr.Expr {
	var found *expr.Expr
	p.MemEntries(func(e pred.MemEntry) {
		if found != nil {
			return
		}
		switch res.Rel(entryID(e)) {
		case memmodel.RelAlias:
			if e.Size == size {
				found = e.Val
			}
		case memmodel.RelEnclosedIn:
			// The read lies inside a region with a known value: slice
			// the little-endian bytes when the offset is constant.
			if off, ok := solver.SameBaseDistance(addr, e.Addr); ok && off >= 0 &&
				off+int64(size) <= int64(e.Size) {
				found = expr.ZExt(expr.Shr(e.Val, expr.Word(uint64(off)*8)), size)
			}
		}
	})
	return found
}

// writeMem writes val into [addr, size], forking the state per produced
// memory model and invalidating or updating the memory clauses according to
// each model's relations (aliasing clauses take the new value, enclosing or
// destroyed clauses are dropped, separate clauses survive).
func (m *Machine) writeMem(st *State, addr *expr.Expr, size int, val *expr.Expr) []*State {
	// Non-evaluable destination (eval ⊥, Definition 4.2): the region is
	// not inserted; the write overapproximates any relation it may have
	// with the current model by invalidating every clause not necessarily
	// separate from it. An unbounded stack write therefore destroys the
	// return-address clause, and the function is later rejected at ret —
	// exactly the paper's treatment of unprovable stack writes.
	if !insertable(addr) {
		w := solver.Region{Addr: addr, Size: uint64(size)}
		o := oracle{m, st}
		st.Pred.WriteMemWith(addr, size, val, func(e pred.MemEntry) *expr.Expr {
			if o.Compare(w, solver.Region{Addr: e.Addr, Size: uint64(e.Size)}).Separate == solver.Yes {
				return e.Val
			}
			return nil
		})
		return []*State{st}
	}
	results, fellBack := memmodel.InsCounted(memmodel.NewRegion(addr, uint64(size)), st.Mem, oracle{m, st}, m.Cfg.MM)
	m.noteIns(results, fellBack)
	out := make([]*State, 0, len(results))
	for i, res := range results {
		s := st
		if i < len(results)-1 {
			s = m.clone(st)
		}
		s.Mem = res.Forest
		// Update or invalidate each clause per its relation to the write:
		// aliases take the new value; enclosing clauses at constant
		// offsets are spliced byte-precisely; enclosed clauses become
		// slices of the new value; separate clauses survive; everything
		// else is dropped. One pass builds the model's clause list.
		s.Pred.WriteMemWith(addr, size, val, func(e pred.MemEntry) *expr.Expr {
			switch res.Rel(entryID(e)) {
			case memmodel.RelSeparate:
				return e.Val
			case memmodel.RelAlias:
				if e.Size == size {
					return val
				}
			case memmodel.RelEnclosedIn:
				// The write lands inside clause e.
				if off, ok := solver.SameBaseDistance(addr, e.Addr); ok &&
					off >= 0 && off+int64(size) <= int64(e.Size) {
					return splice(e.Val, val, off, size, e.Size)
				}
			case memmodel.RelEncloses:
				// Clause e lies inside the written region.
				if off, ok := solver.SameBaseDistance(e.Addr, addr); ok &&
					off >= 0 && off+int64(e.Size) <= int64(size) {
					return expr.ZExt(expr.Shr(val, expr.Word(uint64(off)*8)), e.Size)
				}
			}
			return nil
		})
		out = append(out, s)
	}
	return out
}

// splice replaces size bytes at byte offset off within the outer-byte-wide
// value old by val (little endian).
func splice(old, val *expr.Expr, off int64, size, outer int) *expr.Expr {
	mask := uint64(1)<<(uint(size)*8) - 1
	if size >= 8 {
		mask = ^uint64(0)
	}
	shifted := expr.Shl(expr.And(val, expr.Word(mask)), expr.Word(uint64(off)*8))
	kept := expr.And(old, expr.Word(^(mask << (uint(off) * 8))))
	return expr.ZExt(expr.Or(kept, shifted), outer)
}

// insertable reports whether an address evaluates to a region the memory
// model tracks: a constant, or a single unscaled symbolic base plus a
// constant offset. Anything else (scaled indices, multiple bases) is the
// paper's eval-⊥ case.
func insertable(addr *expr.Expr) bool {
	l := expr.ToLinear(addr)
	if l.NumTerms() == 0 {
		return true
	}
	_, coeff, ok := l.SingleTerm()
	return ok && coeff == 1
}

// entryID maps a predicate memory clause to its region identity in the
// memory model. Both sides hold the same interned address expression, so
// the lookup is exact without rendering a key string.
func entryID(e pred.MemEntry) memmodel.RegionID {
	return memmodel.RegionID{Addr: e.Addr, Size: uint64(e.Size)}
}

// enumerateTable recognises reads at K + c·atom where the atom is interval
// bounded and every slot lies in read-only data, returning the distinct
// values in slot order.
func (m *Machine) enumerateTable(p *pred.Pred, addr *expr.Expr, size int) ([]uint64, bool) {
	l := expr.ToLinear(addr)
	atom, coeff, ok := l.SingleTerm()
	if !ok || coeff == 0 || coeff > 64 {
		return nil, false
	}
	r, ok := p.RangeOf(atom)
	if !ok {
		return nil, false
	}
	count := r.Width() + 1
	if count > uint64(m.Cfg.MaxTableEntries) {
		return nil, false
	}
	base := l.K + coeff*r.Lo
	if !m.Img.IsReadOnly(base, int(coeff*(count-1))+size) {
		return nil, false
	}
	seen := map[uint64]bool{}
	var vals []uint64
	for i := uint64(0); i < count; i++ {
		v, ok := m.Img.ReadRO(base+coeff*i, size)
		if !ok {
			return nil, false
		}
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	return vals, true
}
