// Package domain provides per-variable finite domains and a pre-search
// domain-reduction pass for the finite-domain (FD) encoding layer.
//
// The permutation benchmarks of the PPoPP 2012 study never need this:
// their configurations are permutations of [0, n) by construction. The
// general Adaptive Search formulation of the same research program
// (the Cell/BE and X10 lines) runs over arbitrary finite domains, and
// production CP solvers always reduce domains before search: values no
// assignment can use are removed up front, and a variable whose domain
// empties proves the model unsatisfiable before any walker spends an
// iteration.
//
// The package is deliberately small: a Domain is a sorted slice of
// distinct ints, a Propagator filters domains, and Fixpoint drives a
// set of propagators to quiescence. Propagators must be SOUND — they
// may only remove values that no satisfying assignment uses — so
// reduction never changes the solution set, and ErrUnsatisfiable is a
// proof, not a heuristic.
package domain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrUnsatisfiable reports that domain reduction proved the model has
// no solution (some variable's domain emptied, or a structural check
// like all-different capacity failed). Callers match it with errors.Is.
var ErrUnsatisfiable = errors.New("domain: model is unsatisfiable")

// Domain is the finite domain of one variable: a sorted slice of
// distinct ints. The zero value (nil) is the empty domain.
type Domain []int

// New builds a domain from arbitrary values, sorting and deduplicating.
func New(vals ...int) Domain {
	d := append(Domain(nil), vals...)
	sort.Ints(d)
	out := d[:0]
	for i, v := range d {
		if i == 0 || v != d[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Range returns the domain {lo, ..., hi}; an inverted range is empty.
func Range(lo, hi int) Domain {
	if hi < lo {
		return nil
	}
	d := make(Domain, hi-lo+1)
	for i := range d {
		d[i] = lo + i
	}
	return d
}

// Index returns the position of v in d, or -1.
func (d Domain) Index(v int) int {
	i := sort.SearchInts(d, v)
	if i < len(d) && d[i] == v {
		return i
	}
	return -1
}

// Contains reports whether v is in d.
func (d Domain) Contains(v int) bool { return d.Index(v) >= 0 }

// Remove deletes v from d in place, returning the shrunk domain and
// whether v was present.
func (d Domain) Remove(v int) (Domain, bool) {
	i := d.Index(v)
	if i < 0 {
		return d, false
	}
	return append(d[:i], d[i+1:]...), true
}

// Clone returns an independent copy of d.
func (d Domain) Clone() Domain { return append(Domain(nil), d...) }

// Min returns the smallest value; d must be non-empty.
func (d Domain) Min() int { return d[0] }

// Max returns the largest value; d must be non-empty.
func (d Domain) Max() int { return d[len(d)-1] }

// Propagator filters domains. Reduce removes values from doms that no
// satisfying assignment can use, reports whether anything changed, and
// returns an error wrapping ErrUnsatisfiable when it proves the model
// has no solution. Implementations mutate doms entries in place
// (reassigning shrunk slices) and must be sound: a value used by some
// satisfying assignment is never removed.
type Propagator interface {
	Reduce(doms []Domain) (changed bool, err error)
}

// Fixpoint runs the propagators over doms until none changes anything
// (domains only shrink, so the loop terminates). It returns an error
// wrapping ErrUnsatisfiable if any domain is empty on entry or a
// propagator proves unsatisfiability; on success every domain is
// non-empty and reduced.
func Fixpoint(doms []Domain, props []Propagator) error {
	for i, d := range doms {
		if len(d) == 0 {
			return fmt.Errorf("variable %d has an empty domain: %w", i, ErrUnsatisfiable)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range props {
			ch, err := p.Reduce(doms)
			if err != nil {
				return err
			}
			if ch {
				changed = true
			}
		}
	}
	return nil
}

// Linear propagates bounds consistency over the linear equation
//
//	sum_k Coeffs[k] * x[Vars[k]] == Target.
//
// For each variable it computes the interval the other terms can reach
// from their current domain bounds and removes every value whose own
// contribution cannot complete the sum. This is a relaxation (it
// reasons with intervals, not exact sums), so it is sound by
// construction; it reports unsatisfiability only when a domain empties.
type Linear struct {
	Vars   []int
	Coeffs []int
	Target int
}

// Reduce implements Propagator.
func (l Linear) Reduce(doms []Domain) (bool, error) {
	if len(l.Vars) != len(l.Coeffs) {
		return false, fmt.Errorf("domain: Linear has %d vars but %d coefficients", len(l.Vars), len(l.Coeffs))
	}
	if len(l.Vars) == 0 {
		if l.Target != 0 {
			return false, fmt.Errorf("empty linear equation with target %d: %w", l.Target, ErrUnsatisfiable)
		}
		return false, nil
	}
	// Per-term contribution bounds under the current domains.
	los := make([]int, len(l.Vars))
	his := make([]int, len(l.Vars))
	sumLo, sumHi := 0, 0
	for k, vi := range l.Vars {
		d := doms[vi]
		if len(d) == 0 {
			return false, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
		}
		c := l.Coeffs[k]
		lo, hi := c*d.Min(), c*d.Max()
		if c < 0 {
			lo, hi = hi, lo
		}
		los[k], his[k] = lo, hi
		sumLo += lo
		sumHi += hi
	}
	changed := false
	for k, vi := range l.Vars {
		othersLo := sumLo - los[k]
		othersHi := sumHi - his[k]
		c := l.Coeffs[k]
		d := doms[vi]
		out := d[:0]
		for _, v := range d {
			// Keep v iff the remaining terms can still reach Target.
			need := l.Target - c*v
			if need >= othersLo && need <= othersHi {
				out = append(out, v)
			}
		}
		if len(out) != len(d) {
			changed = true
			doms[vi] = out
			if len(out) == 0 {
				return true, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
			}
		}
	}
	return changed, nil
}

// Distinct propagates an all-different constraint over Vars: every
// listed variable must take a distinct value. It applies singleton
// propagation (an assigned variable's value is removed from its peers)
// and the pigeonhole capacity check — more variables than distinct
// values across their domains proves unsatisfiability. Duplicate
// entries in Vars are ignored.
type Distinct struct {
	Vars []int
}

// Reduce implements Propagator.
func (c Distinct) Reduce(doms []Domain) (bool, error) {
	sc := distinctPool.Get().(*distinctScratch)
	defer distinctPool.Put(sc)
	// Deduplicate the group so repeated registration of a variable
	// neither miscounts capacity nor empties its own domain.
	group := sc.dedupe(c.Vars, len(doms))
	// Pigeonhole capacity: |group| distinct values must exist.
	for _, vi := range group {
		if len(doms[vi]) == 0 {
			return false, fmt.Errorf("variable %d has an empty domain: %w", vi, ErrUnsatisfiable)
		}
	}
	if u := sc.unionSize(doms, group, len(group)); u < len(group) {
		return false, fmt.Errorf("all-different over %d variables with only %d values: %w", len(group), u, ErrUnsatisfiable)
	}
	changed := false
	for _, vi := range group {
		if len(doms[vi]) != 1 {
			continue
		}
		v := doms[vi][0]
		for _, vj := range group {
			if vj == vi {
				continue
			}
			d, removed := doms[vj].Remove(v)
			if !removed {
				continue
			}
			changed = true
			doms[vj] = d
			if len(d) == 0 {
				return true, fmt.Errorf("variable %d has an empty domain: %w", vj, ErrUnsatisfiable)
			}
		}
	}
	return changed, nil
}

// distinctScratch is the reusable working memory of Distinct.Reduce,
// pooled so the reduction pass allocates nothing per call.
type distinctScratch struct {
	stamp []uint32 // stamp[vi] == epoch: vi is already in the group
	epoch uint32
	group []int
	bits  []uint64 // value bitset of the union count
	vals  []int    // sorted fallback for value ranges too wide to bitset
}

var distinctPool = sync.Pool{New: func() any { return new(distinctScratch) }}

// dedupe returns vars without repeats, first occurrences in order. The
// result aliases the scratch.
func (sc *distinctScratch) dedupe(vars []int, nvars int) []int {
	if len(sc.stamp) < nvars {
		sc.stamp = make([]uint32, nvars)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.group = sc.group[:0]
	for _, vi := range vars {
		if sc.stamp[vi] != sc.epoch {
			sc.stamp[vi] = sc.epoch
			sc.group = append(sc.group, vi)
		}
	}
	return sc.group
}

// unionSize counts the distinct values across the group's (non-empty,
// sorted) domains, stopping early once it reaches need: the pigeonhole
// check only asks whether need values exist. Values within a range no
// wider than 64 per member value are counted in a bitset; wider,
// sparse ranges are sorted.
func (sc *distinctScratch) unionSize(doms []Domain, group []int, need int) int {
	if need == 0 {
		return 0
	}
	lo, hi, total := doms[group[0]].Min(), doms[group[0]].Max(), 0
	for _, vi := range group {
		d := doms[vi]
		lo, hi = min(lo, d.Min()), max(hi, d.Max())
		total += len(d)
	}
	// The span is computed in uint64 so extreme values cannot overflow.
	if span := uint64(hi) - uint64(lo); span/64 <= uint64(total) {
		words := int(span/64) + 1
		if cap(sc.bits) < words {
			sc.bits = make([]uint64, words)
		}
		bits := sc.bits[:words]
		clear(bits)
		count := 0
		for _, vi := range group {
			for _, v := range doms[vi] {
				off := uint64(v) - uint64(lo)
				if w, m := off/64, uint64(1)<<(off%64); bits[w]&m == 0 {
					bits[w] |= m
					if count++; count >= need {
						return count
					}
				}
			}
		}
		return count
	}
	vals := sc.vals[:0]
	for _, vi := range group {
		vals = append(vals, doms[vi]...)
	}
	sc.vals = vals
	sort.Ints(vals)
	count := 0
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			if count++; count >= need {
				return count
			}
		}
	}
	return count
}
