package calibrate

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

func seqBatch(t *testing.T, iters []float64, rate float64, at time.Time) Batch {
	t.Helper()
	return Batch{
		Source:      "bench",
		RecordedAt:  at,
		Sequential:  true,
		Walkers:     1,
		Iters:       iters,
		ItersPerSec: rate,
	}
}

func drawShiftedExp(r *rng.Rand, shift, scale float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = shift + scale*r.ExpFloat64()
	}
	return xs
}

func TestRecordResolveFit(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "costas", Size: 18, Strategy: "adaptive"}
	now := time.Now()
	r := rng.New(1)
	// Two sequential feeds pool into one sample.
	if err := st.Record(key, seqBatch(t, drawShiftedExp(r, 300, 4000, 200), 1e5, now)); err != nil {
		t.Fatal(err)
	}
	if err := st.Record(key, seqBatch(t, drawShiftedExp(r, 300, 4000, 200), 3e5, now)); err != nil {
		t.Fatal(err)
	}
	res, err := st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 400 {
		t.Fatalf("Samples = %d, want 400", res.Samples)
	}
	if got, want := res.ItersPerSec, 2e5; math.Abs(got-want) > 1 {
		t.Fatalf("ItersPerSec = %v, want weighted mean %v", got, want)
	}
	if res.Fit.Family != stats.FamilyShiftedExp {
		t.Fatalf("fit selected %s on shifted-exp data", res.Fit.Family)
	}
	if s := res.Fit.Speedup(4); s < 1 || s > 4 {
		t.Fatalf("Speedup(4) = %v out of range", s)
	}
}

// TestResolveLoneBatchRateExact pins that a key with one rate-carrying
// batch resolves to exactly that batch's rate: the pooled mean must not
// round a lone rate off by an ulp (r·w/w does for this value).
func TestResolveLoneBatchRateExact(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "costas", Size: 12, Strategy: "adaptive"}
	const rate = 740536.6923409903
	if err := st.Record(key, seqBatch(t, drawShiftedExp(rng.New(3), 50, 500, 12), rate, time.Now())); err != nil {
		t.Fatal(err)
	}
	res, err := st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.ItersPerSec != rate {
		t.Fatalf("ItersPerSec = %v, want exactly %v", res.ItersPerSec, rate)
	}
}

func TestResolveInsufficient(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "queens", Size: 64}
	if _, err := st.Resolve(key); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("unknown key: err = %v, want ErrInsufficient", err)
	}
	// Multi-walker evidence alone never satisfies a fit: those draws
	// are min-of-k-biased.
	b := Batch{Source: "live", RecordedAt: time.Now(), Walkers: 4, Iters: drawShiftedExp(rng.New(2), 10, 100, 50)}
	if err := st.Record(key, b); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resolve(key); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("biased-only key: err = %v, want ErrInsufficient", err)
	}
}

func TestRecordValidation(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "costas", Size: 10}
	bad := []Batch{
		{Walkers: 0, Iters: []float64{1}},
		{Walkers: 1, Iters: nil},
		{Walkers: 1, Iters: []float64{math.NaN()}},
		{Walkers: 1, Iters: []float64{-1}},
		{Walkers: 1, Iters: []float64{1}, ItersPerSec: math.Inf(1)},
		{Walkers: 2, Sequential: true, Iters: []float64{1}},
	}
	for i, b := range bad {
		if err := st.Record(key, b); !errors.Is(err, ErrBadStore) {
			t.Errorf("bad[%d]: err = %v, want ErrBadStore", i, err)
		}
	}
	if err := st.Record(Key{}, Batch{Walkers: 1, Iters: []float64{1}}); !errors.Is(err, ErrBadStore) {
		t.Errorf("empty key accepted: %v", err)
	}
	// Record must copy the caller's slice.
	xs := []float64{5, 6, 7, 8, 9, 10, 11, 12}
	if err := st.Record(key, Batch{Source: "bench", Sequential: true, Walkers: 1, Iters: xs, RecordedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	xs[0] = 1e9
	res, err := st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Mean() > 100 {
		t.Error("store aliased the caller's observation slice")
	}
}

func TestObservedSpeedups(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "magic-square", Size: 6}
	now := time.Now()
	// Sequential mean 100.
	seq := make([]float64, 50)
	for i := range seq {
		seq[i] = 100
	}
	if err := st.Record(key, seqBatch(t, seq, 0, now)); err != nil {
		t.Fatal(err)
	}
	// Winner efforts at k=4 average 25 -> measured speedup 4.
	if err := st.Record(key, Batch{Source: "live", RecordedAt: now, Walkers: 4, Iters: []float64{20, 30, 25, 25}}); err != nil {
		t.Fatal(err)
	}
	// And at k=2 average 50 -> speedup 2.
	if err := st.Record(key, Batch{Source: "live", RecordedAt: now, Walkers: 2, Iters: []float64{40, 60}}); err != nil {
		t.Fatal(err)
	}
	obs, err := st.ObservedSpeedups(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 || obs[0].Walkers != 2 || obs[1].Walkers != 4 {
		t.Fatalf("obs = %+v", obs)
	}
	if math.Abs(obs[0].Speedup-2) > 1e-9 || math.Abs(obs[1].Speedup-4) > 1e-9 {
		t.Fatalf("speedups = %v, %v; want 2, 4", obs[0].Speedup, obs[1].Speedup)
	}
	if obs[1].Runs != 4 {
		t.Fatalf("Runs = %d, want 4", obs[1].Runs)
	}
}

func TestEvictBefore(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "costas", Size: 12}
	old := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fresh := old.Add(48 * time.Hour)
	if err := st.Record(key, seqBatch(t, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 0, old)); err != nil {
		t.Fatal(err)
	}
	if err := st.Record(key, seqBatch(t, []float64{9, 10, 11, 12, 13, 14, 15, 16}, 0, fresh)); err != nil {
		t.Fatal(err)
	}
	if n := st.EvictBefore(old.Add(time.Hour)); n != 1 {
		t.Fatalf("dropped %d batches, want 1", n)
	}
	res, err := st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 8 || res.Sample.Mean() != 12.5 {
		t.Fatalf("post-evict sample n=%d mean=%v", res.Samples, res.Sample.Mean())
	}
	// Evicting the rest removes the key entirely.
	if n := st.EvictBefore(fresh.Add(time.Hour)); n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
	if got := st.Keys(); len(got) != 0 {
		t.Fatalf("keys after full eviction: %v", got)
	}
}

func TestBatchCapKeepsFresh(t *testing.T) {
	st := NewStore()
	key := Key{Problem: "costas", Size: 9}
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < maxBatchesPerEntry+10; i++ {
		b := seqBatch(t, []float64{float64(i)}, 0, base.Add(time.Duration(i)*time.Second))
		if err := st.Record(key, b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != maxBatchesPerEntry {
		t.Fatalf("Samples = %d, want cap %d", res.Samples, maxBatchesPerEntry)
	}
	// The oldest observations (0..9) were the ones evicted.
	if min := res.Sample.Quantile(0); min != 10 {
		t.Fatalf("oldest surviving observation = %v, want 10", min)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := NewStore()
	now := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	k1 := Key{Problem: "costas", Size: 14, Strategy: "adaptive"}
	k2 := Key{Problem: "timetable", Size: 20, Params: "rooms=4,slots=8"}
	if err := st.Record(k1, seqBatch(t, drawShiftedExp(rng.New(5), 50, 500, 64), 2e5, now)); err != nil {
		t.Fatal(err)
	}
	if err := st.Record(k2, Batch{Source: "live", RecordedAt: now, Walkers: 4, Iters: []float64{5, 6, 7}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "calibration.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys()) != 2 {
		t.Fatalf("loaded keys: %v", got.Keys())
	}
	want, _ := st.Resolve(k1)
	res, err := got.Resolve(k1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != want.Samples || res.ItersPerSec != want.ItersPerSec {
		t.Fatalf("round trip changed resolution: %+v vs %+v", res, want)
	}
	if res.Sample.Mean() != want.Sample.Mean() {
		t.Fatalf("round trip changed sample mean")
	}
}

func TestLoadMissingIsEmpty(t *testing.T) {
	st, err := Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Keys()) != 0 {
		t.Fatal("missing file should load as empty store")
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"wrong version": `{"schema_version":2,"entries":[]}`,
		"zero version":  `{"entries":[]}`,
		"bad batch":     `{"schema_version":1,"entries":[{"key":{"problem":"x","size":1},"batches":[{"walkers":0,"iters":[1]}]}]}`,
		"nan smuggling": `{"schema_version":1,"entries":[{"key":{"problem":"x","size":1},"batches":[{"walkers":1,"iters":[1e999]}]}]}`,
		"missing":       `null`,
		"keyless entry": `{"schema_version":1,"entries":[{"key":{"size":1},"batches":[{"walkers":1,"iters":[1]}]}]}`,
	}
	for name, doc := range cases {
		if _, err := Decode([]byte(doc)); !errors.Is(err, ErrBadStore) {
			t.Errorf("%s: err = %v, want ErrBadStore", name, err)
		}
	}
	if _, err := Decode(make([]byte, maxDecodeBytes+1)); !errors.Is(err, ErrBadStore) {
		t.Error("oversized input accepted")
	}
	st, err := Decode([]byte(`{"schema_version":1}`))
	if err != nil || len(st.Keys()) != 0 {
		t.Errorf("empty document: %v, %v", st, err)
	}
}

func TestCanonicalParams(t *testing.T) {
	if got := CanonicalParams(nil); got != "" {
		t.Errorf("nil params -> %q", got)
	}
	got := CanonicalParams(map[string]int{"slots": 8, "rooms": 4, "teachers": 6})
	if got != "rooms=4,slots=8,teachers=6" {
		t.Errorf("canonical form = %q", got)
	}
}
