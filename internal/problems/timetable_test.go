package problems

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// uncachedTimetable builds an instance from a freshly generated
// template, bypassing the cache: the reference every cached instance
// must equal.
func uncachedTimetable(t testing.TB, n int, params map[string]int) *Timetable {
	t.Helper()
	k, err := timetableKeyOf(n, params)
	if err != nil {
		t.Fatal(err)
	}
	return k.instance(k.template())
}

func cachedTemplate(k timetableKey) *timetableTemplate {
	c := &timetableCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

func domainsOf(p *Timetable) [][]int {
	out := make([][]int, p.Size())
	for i := range out {
		out[i] = slices.Clone(p.Domain(i))
	}
	return out
}

// TestTimetableTemplateMatchesFresh: an instance served from the
// template cache is the instance a fresh build produces — same
// resources, same generated and reduced domains, same search trace.
func TestTimetableTemplateMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		n      int
		params map[string]int
	}{
		{40, nil},
		{120, map[string]int{"slots": 20, "rooms": 7, "teachers": 6}},
	} {
		cached, err := NewTimetable(tc.n, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		fresh := uncachedTimetable(t, tc.n, tc.params)
		if cached.tpl == fresh.tpl {
			t.Fatal("the reference instance came from the cache")
		}
		if !slices.Equal(cached.idA, fresh.idA) || !slices.Equal(cached.idB, fresh.idB) {
			t.Fatalf("timetable(%d): resource ids differ from a fresh build", tc.n)
		}
		if !slices.EqualFunc(domainsOf(cached), domainsOf(fresh), slices.Equal) {
			t.Fatalf("timetable(%d): generated domains differ from a fresh build", tc.n)
		}
		if err := cached.ReduceDomains(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ReduceDomains(); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(domainsOf(cached), domainsOf(fresh), slices.Equal) {
			t.Fatalf("timetable(%d): reduced domains differ from a fresh build", tc.n)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			a, err := NewTimetable(tc.n, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			b := uncachedTimetable(t, tc.n, tc.params)
			opts := core.TunedOptions(a)
			opts.Seed = seed
			opts.MaxIterations = 20000
			ra, err := core.Solve(context.Background(), a, opts)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := core.Solve(context.Background(), b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Iterations != rb.Iterations || ra.Solved != rb.Solved || !slices.Equal(ra.Solution, rb.Solution) {
				t.Fatalf("timetable(%d) seed %d: cached run (%d iters, solved %v) != fresh run (%d iters, solved %v)",
					tc.n, seed, ra.Iterations, ra.Solved, rb.Iterations, rb.Solved)
			}
		}
	}
}

// TestTimetableConcurrentBuild: k walkers building, reducing and
// solving one tuple at once (run it under -race) end up sharing one
// template and one reduction.
func TestTimetableConcurrentBuild(t *testing.T) {
	const k = 4
	params := map[string]int{"slots": 17}
	insts := make([]*Timetable, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := NewTimetable(60, params)
			if err != nil {
				errs[w] = err
				return
			}
			if err := p.ReduceDomains(); err != nil {
				errs[w] = err
				return
			}
			opts := core.TunedOptions(p)
			opts.Seed = uint64(w + 1)
			opts.MaxIterations = 2000
			_, errs[w] = core.Solve(context.Background(), p, opts)
			insts[w] = p
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("walker %d: %v", w, err)
		}
	}
	for w, p := range insts[1:] {
		if p.tpl != insts[0].tpl {
			t.Fatalf("walker %d built its own template", w+1)
		}
		for i := 0; i < p.Size(); i++ {
			if &p.Domain(i)[0] != &insts[0].Domain(i)[0] {
				t.Fatalf("walker %d does not share the reduced domain of session %d", w+1, i)
			}
		}
	}
}

// TestTimetableSiblingIsolation: solving one instance writes only its
// own occupancy table and error vector; a sibling sharing the template
// keeps its fresh state and its domains.
func TestTimetableSiblingIsolation(t *testing.T) {
	a, err := NewTimetable(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTimetable(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.tpl != b.tpl {
		t.Fatal("siblings do not share a template")
	}
	if err := b.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	doms := domainsOf(b)
	generated := domainsOf(uncachedTimetable(t, 40, nil))

	opts := core.TunedOptions(a)
	opts.Seed = 7
	res, err := core.Solve(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assigns == 0 {
		t.Fatal("the solve made no move, so it tests nothing")
	}
	if slices.ContainsFunc(b.occ, func(o int) bool { return o != 0 }) {
		t.Fatal("solving a sibling wrote to this instance's occupancy table")
	}
	if slices.ContainsFunc(b.errVec, func(e int) bool { return e != 0 }) {
		t.Fatal("solving a sibling wrote to this instance's error vector")
	}
	if !slices.EqualFunc(domainsOf(b), doms, slices.Equal) {
		t.Fatal("solving a sibling changed this instance's domains")
	}
	if !slices.EqualFunc(b.tpl.domains, generated, slices.Equal) {
		t.Fatal("reduction or search wrote to the template's generated domains")
	}
}

// TestTimetableOverBudgetNotRetained: a tuple whose domains alone
// exceed the cache budget is built uncached, every time.
func TestTimetableOverBudgetNotRetained(t *testing.T) {
	// One room over-commits the capacity, so every domain holds all
	// 1024 slots: 1025*1024 values, just over the 1<<20 budget.
	params := map[string]int{"slots": 1024, "rooms": 1}
	k, err := timetableKeyOf(1025, params)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTimetable(1025, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.tpl.values <= timetableCacheBudget {
		t.Fatalf("tuple holds %d values, not over the %d budget", a.tpl.values, timetableCacheBudget)
	}
	if cachedTemplate(k) != nil {
		t.Fatal("an over-budget template was retained")
	}
	b, err := NewTimetable(1025, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.tpl == b.tpl {
		t.Fatal("two over-budget instances share a template")
	}
}

// TestTimetableCacheBudget: the cache drops its oldest templates to
// stay within the value budget.
func TestTimetableCacheBudget(t *testing.T) {
	// Each tuple has full domains of 800*slots values, about 0.4 of the
	// budget: the third insertion must evict the first.
	var keys []timetableKey
	for _, slots := range []int{500, 501, 502} {
		params := map[string]int{"slots": slots, "rooms": 1}
		if _, err := NewTimetable(800, params); err != nil {
			t.Fatal(err)
		}
		k, err := timetableKeyOf(800, params)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if cachedTemplate(keys[0]) != nil {
		t.Fatal("the oldest template survived an insertion past the budget")
	}
	if cachedTemplate(keys[1]) == nil || cachedTemplate(keys[2]) == nil {
		t.Fatal("a template within the budget was evicted")
	}
	c := &timetableCache
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, tpl := range c.m {
		total += tpl.values
	}
	if total != c.values || total > timetableCacheBudget || len(c.order) != len(c.m) {
		t.Fatalf("cache accounting off: %d values counted, %d held, budget %d, %d keys in order for %d entries",
			c.values, total, timetableCacheBudget, len(c.order), len(c.m))
	}
}

// TestTimetableVerify: the occupancy-table Verify accepts exactly the
// conflict-free in-domain configurations the pairwise definition does.
func TestTimetableVerify(t *testing.T) {
	p, err := NewTimetable(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReduceDomains(); err != nil {
		t.Fatal(err)
	}
	opts := core.TunedOptions(p)
	opts.Seed = 3
	res, err := core.Solve(context.Background(), p, opts)
	if err != nil || !res.Solved {
		t.Fatalf("timetable(20) unsolved: %v %v", res, err)
	}
	if !p.Verify(res.Solution) {
		t.Fatal("Verify rejected a solution")
	}
	if p.Verify(res.Solution[1:]) {
		t.Fatal("Verify accepted a short configuration")
	}
	// Every single-session reassignment either leaves the domain, or
	// double-books a resource, or is still a solution; Verify must
	// agree with the pairwise check each time.
	cfg := slices.Clone(res.Solution)
	for i := range cfg {
		for v := -1; v <= p.slots; v++ {
			cfg[i] = v
			if got, want := p.Verify(cfg), pairwiseVerify(p, cfg); got != want {
				t.Fatalf("session %d at slot %d: Verify = %v, pairwise = %v", i, v, got, want)
			}
		}
		cfg[i] = res.Solution[i]
	}
}

// pairwiseVerify is the O(n^2) definition of a valid timetable.
func pairwiseVerify(p *Timetable, cfg []int) bool {
	for i, s := range cfg {
		if !slices.Contains(p.Domain(i), s) {
			return false
		}
		for j := i + 1; j < len(cfg); j++ {
			if cfg[j] == s && (p.idA[i] == p.idA[j] || p.idB[i] == p.idB[j]) {
				return false
			}
		}
	}
	return true
}

// BenchmarkTimetableBuildReduce measures the set-up of one
// timetable-400 instance: cold generates the template and runs the
// reduction pass, warm is a template-cache hit adopting the memoized
// reduction.
func BenchmarkTimetableBuildReduce(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := uncachedTimetable(b, 400, nil)
			if err := p.ReduceDomains(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := NewTimetable(400, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.ReduceDomains(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
