package domain

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestDomainBasics(t *testing.T) {
	d := New(5, 1, 3, 3, 1)
	want := []int{1, 3, 5}
	if len(d) != len(want) {
		t.Fatalf("New deduplication failed: %v", d)
	}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("New = %v, want %v", []int(d), want)
		}
	}
	if !d.Contains(3) || d.Contains(2) {
		t.Errorf("Contains wrong on %v", d)
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Errorf("Min/Max = %d/%d", d.Min(), d.Max())
	}
	d, removed := d.Remove(3)
	if !removed || d.Contains(3) || len(d) != 2 {
		t.Errorf("Remove(3) = %v, removed=%v", d, removed)
	}
	if _, removed := d.Remove(42); removed {
		t.Error("Remove of absent value reported removal")
	}
	r := Range(2, 4)
	if len(r) != 3 || r[0] != 2 || r[2] != 4 {
		t.Errorf("Range(2,4) = %v", r)
	}
	if len(Range(4, 2)) != 0 {
		t.Error("inverted Range not empty")
	}
}

func TestFixpointEmptyDomain(t *testing.T) {
	doms := []Domain{Range(0, 2), nil}
	err := Fixpoint(doms, nil)
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("empty domain not reported unsatisfiable: %v", err)
	}
}

func TestLinearReduces(t *testing.T) {
	// x + y == 3, x in [0,5], y in [0,1]: x must be in [2,3].
	doms := []Domain{Range(0, 5), Range(0, 1)}
	err := Fixpoint(doms, []Propagator{Linear{Vars: []int{0, 1}, Coeffs: []int{1, 1}, Target: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doms[0]) != 2 || doms[0][0] != 2 || doms[0][1] != 3 {
		t.Errorf("x domain = %v, want [2 3]", doms[0])
	}
	if len(doms[1]) != 2 {
		t.Errorf("y domain = %v, want [0 1]", doms[1])
	}
}

func TestLinearUnsatisfiable(t *testing.T) {
	// 2x == 7 has no integer solution in [0,3].
	doms := []Domain{Range(0, 3)}
	err := Fixpoint(doms, []Propagator{Linear{Vars: []int{0}, Coeffs: []int{2}, Target: 7}})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("want ErrUnsatisfiable, got %v", err)
	}
}

func TestDistinctSingletonPropagation(t *testing.T) {
	// x fixed to 1 removes 1 from y and z; z collapses to 2, which then
	// leaves y = {0} at the fixpoint.
	doms := []Domain{New(1), New(0, 1, 2), New(1, 2)}
	err := Fixpoint(doms, []Propagator{Distinct{Vars: []int{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doms[2]) != 1 || doms[2][0] != 2 {
		t.Errorf("z domain = %v, want [2]", doms[2])
	}
	if len(doms[1]) != 1 || doms[1][0] != 0 {
		t.Errorf("y domain = %v, want [0]", doms[1])
	}
}

func TestDistinctCapacity(t *testing.T) {
	// Three variables over two values: pigeonhole unsatisfiable.
	doms := []Domain{Range(0, 1), Range(0, 1), Range(0, 1)}
	err := Fixpoint(doms, []Propagator{Distinct{Vars: []int{0, 1, 2}}})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("want ErrUnsatisfiable, got %v", err)
	}
}

func TestDistinctDuplicateVars(t *testing.T) {
	// A duplicated entry must not make x "conflict with itself".
	doms := []Domain{New(1), Range(0, 2)}
	err := Fixpoint(doms, []Propagator{Distinct{Vars: []int{0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doms[0]) != 1 {
		t.Errorf("x domain = %v, want [1]", doms[0])
	}
}

// TestDistinctUnionPaths drives the pigeonhole count down both of its
// paths — the bitset for dense value ranges and the sorted fallback for
// sparse, extreme ones — and checks the verdict and the reported count
// against a brute-force union.
func TestDistinctUnionPaths(t *testing.T) {
	const huge = int(^uint(0) >> 1)
	cases := []struct {
		name  string
		doms  []Domain
		unsat bool
	}{
		{"dense fits", []Domain{Range(0, 2), Range(1, 3), Range(2, 4)}, false},
		{"dense short", []Domain{New(5, 6), New(5, 6), New(6, 5)}, true},
		{"sparse fits", []Domain{New(-huge, 0), New(0, huge), New(huge)}, false},
		{"sparse short", []Domain{New(-huge-1, huge), New(-huge-1, huge), New(huge, -huge-1)}, true},
		{"negative dense", []Domain{Range(-70, -68), Range(-70, -68), Range(-70, -68), Range(-70, -68)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			union := map[int]bool{}
			vars := make([]int, len(tc.doms))
			for i, d := range tc.doms {
				vars[i] = i
				for _, v := range d {
					union[v] = true
				}
			}
			_, err := Distinct{Vars: vars}.Reduce(tc.doms)
			if got := errors.Is(err, ErrUnsatisfiable); got != tc.unsat {
				t.Fatalf("unsatisfiable = %v (%v), want %v", got, err, tc.unsat)
			}
			if tc.unsat {
				want := fmt.Sprintf("all-different over %d variables with only %d values", len(vars), len(union))
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not report %q", err, want)
				}
			}
		})
	}
}

// TestDistinctEmptyGroup: an all-different over no variables is
// trivially satisfied and changes nothing.
func TestDistinctEmptyGroup(t *testing.T) {
	doms := []Domain{Range(0, 1)}
	if ch, err := (Distinct{}).Reduce(doms); ch || err != nil {
		t.Fatalf("Reduce = (%v, %v), want (false, nil)", ch, err)
	}
}

// fuzzModel is a small random FD model decoded from fuzz bytes: a few
// variables with small domains, linear equations and one optional
// all-different group.
type fuzzModel struct {
	doms     []Domain
	linear   []Linear
	distinct []Distinct
}

// decodeFuzzModel derives a model deterministically from data. It
// returns ok=false for inputs too short to describe one.
func decodeFuzzModel(data []byte) (fuzzModel, bool) {
	if len(data) < 4 {
		return fuzzModel{}, false
	}
	next := func() byte {
		b := data[0]
		data = data[1:]
		return b
	}
	rem := func() int { return len(data) }

	n := int(next())%4 + 1 // 1..4 variables
	m := fuzzModel{}
	for i := 0; i < n; i++ {
		if rem() == 0 {
			return fuzzModel{}, false
		}
		// Each variable's domain is a non-empty subset of [0,5] from a
		// 6-bit mask; an empty mask selects {bits % 6}.
		bits := next()
		var d Domain
		for v := 0; v < 6; v++ {
			if bits&(1<<v) != 0 {
				d = append(d, v)
			}
		}
		if len(d) == 0 {
			d = Domain{int(bits) % 6}
		}
		m.doms = append(m.doms, d)
	}
	if rem() == 0 {
		return fuzzModel{}, false
	}
	ncons := int(next()) % 3 // 0..2 linear equations
	for c := 0; c < ncons; c++ {
		var l Linear
		for i := 0; i < n; i++ {
			if rem() == 0 {
				return fuzzModel{}, false
			}
			coef := int(next())%5 - 2 // -2..2, 0 drops the term
			if coef == 0 {
				continue
			}
			l.Vars = append(l.Vars, i)
			l.Coeffs = append(l.Coeffs, coef)
		}
		if len(l.Vars) == 0 {
			continue
		}
		if rem() == 0 {
			return fuzzModel{}, false
		}
		l.Target = int(next())%21 - 10 // -10..10
		m.linear = append(m.linear, l)
	}
	if rem() > 0 && next()%2 == 1 {
		// One all-different group over a prefix of the variables.
		if rem() == 0 {
			return fuzzModel{}, false
		}
		k := int(next())%n + 1
		g := Distinct{}
		for i := 0; i < k; i++ {
			g.Vars = append(g.Vars, i)
		}
		m.distinct = append(m.distinct, g)
	}
	return m, true
}

// satisfies checks an assignment exactly (no relaxation).
func (m fuzzModel) satisfies(asn []int) bool {
	for _, l := range m.linear {
		sum := 0
		for k, vi := range l.Vars {
			sum += l.Coeffs[k] * asn[vi]
		}
		if sum != l.Target {
			return false
		}
	}
	for _, g := range m.distinct {
		for a := 0; a < len(g.Vars); a++ {
			for b := a + 1; b < len(g.Vars); b++ {
				if asn[g.Vars[a]] != asn[g.Vars[b]] {
					continue
				}
				if g.Vars[a] != g.Vars[b] {
					return false
				}
			}
		}
	}
	return true
}

// forEachAssignment enumerates the cross product of doms.
func forEachAssignment(doms []Domain, fn func(asn []int)) {
	asn := make([]int, len(doms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(doms) {
			fn(asn)
			return
		}
		for _, v := range doms[i] {
			asn[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// FuzzReduceDomain cross-checks the reduction pass against brute force
// on small random models: reduction must never remove a value any
// satisfying assignment uses (soundness), and an ErrUnsatisfiable
// verdict must be a proof — brute force must agree no solution exists.
func FuzzReduceDomain(f *testing.F) {
	f.Add([]byte{2, 0x3f, 0x07, 1, 1, 2, 5, 1, 2})
	f.Add([]byte{3, 0x03, 0x03, 0x03, 0, 1, 3})
	f.Add([]byte{1, 0x0f, 1, 2, 7, 0})
	f.Add([]byte{4, 0x3f, 0x1f, 0x0f, 0x07, 2, 1, 1, 1, 1, 4, 2, 2, 2, 2, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeFuzzModel(data)
		if !ok {
			t.Skip()
		}
		// Brute-force ground truth over the ORIGINAL domains.
		var solutions [][]int
		forEachAssignment(m.doms, func(asn []int) {
			if m.satisfies(asn) {
				solutions = append(solutions, append([]int(nil), asn...))
			}
		})

		reduced := make([]Domain, len(m.doms))
		for i, d := range m.doms {
			reduced[i] = d.Clone()
		}
		props := make([]Propagator, 0, len(m.linear)+len(m.distinct))
		for _, l := range m.linear {
			props = append(props, l)
		}
		for _, g := range m.distinct {
			props = append(props, g)
		}
		err := Fixpoint(reduced, props)

		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("reduction failed with a non-unsat error: %v", err)
			}
			if len(solutions) > 0 {
				t.Fatalf("reduction claimed unsatisfiable but %v solves the model (e.g. %v)", solutions[0], m)
			}
			return
		}
		for _, sol := range solutions {
			for i, v := range sol {
				if !reduced[i].Contains(v) {
					t.Fatalf("reduction removed value %d from variable %d, used by solution %v", v, i, sol)
				}
			}
		}
	})
}
