package repo

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ml"
)

func testEntry(key string) *Entry {
	return &Entry{
		Fingerprint: "fp01",
		Key:         key,
		System:      "CAML",
		Dataset:     "credit-g",
		Score:       0.8125,
		Record:      []byte(`{"system":"CAML","score":0.8125}`),
		Config:      []byte(`{"model":1}`),
		Rows:        3,
		Classes:     2,
		Proba:       []float64{0.9, 0.1, 0.25, 0.75, math.Copysign(0, -1), 1},
		InferCost:   ml.Cost{Generic: 12, Tree: 3, Matrix: 0.5},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Repository {
	t.Helper()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	want := testEntry("CAML|credit-g|30000000000|1")
	if err := r.Put(want); err != nil {
		t.Fatal(err)
	}
	got, damaged, err := r.Get(want.Fingerprint, want.Key)
	if err != nil || damaged {
		t.Fatalf("Get: damaged=%v err=%v", damaged, err)
	}
	if got == nil {
		t.Fatal("stored cell not found")
	}
	if got.Fingerprint != want.Fingerprint || got.Key != want.Key ||
		got.System != want.System || got.Dataset != want.Dataset ||
		got.Score != want.Score || got.Rows != want.Rows || got.Classes != want.Classes {
		t.Fatalf("header mismatch: %+v", got)
	}
	if string(got.Record) != string(want.Record) || string(got.Config) != string(want.Config) {
		t.Fatalf("record/config mismatch: %q / %q", got.Record, got.Config)
	}
	if got.InferCost != want.InferCost {
		t.Fatalf("cost mismatch: %+v", got.InferCost)
	}
	for i := range want.Proba {
		if math.Float64bits(got.Proba[i]) != math.Float64bits(want.Proba[i]) {
			t.Fatalf("proba[%d] bits differ", i)
		}
	}
}

func TestGetMiss(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e, damaged, err := r.Get("fp01", "nope")
	if e != nil || damaged || err != nil {
		t.Fatalf("miss: got (%v, %v, %v), want (nil, false, nil)", e, damaged, err)
	}
}

func TestPutValidation(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e := testEntry("k")
	e.Proba = e.Proba[:4]
	if err := r.Put(e); err == nil || !strings.Contains(err.Error(), "proba") {
		t.Fatalf("mis-sized proba accepted: %v", err)
	}
	e = testEntry("k")
	e.Fingerprint = ""
	if err := r.Put(e); err == nil {
		t.Fatal("empty fingerprint accepted")
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	rw := mustOpen(t, dir, Options{})
	if err := rw.Put(testEntry("k")); err != nil {
		t.Fatal(err)
	}
	ro := mustOpen(t, dir, Options{ReadOnly: true})
	if err := ro.Put(testEntry("k2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put: %v, want ErrReadOnly", err)
	}
	if e, _, err := ro.Get("fp01", "k"); err != nil || e == nil {
		t.Fatalf("read-only Get: %v, %v", e, err)
	}
	// Read-only open of a missing store is an error, not an empty store.
	if _, err := Open(filepath.Join(dir, "absent"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of missing dir accepted")
	}
}

// corrupt locates the single cell file under dir and mutates it.
func corrupt(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	var path string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, cellExt) {
			path = p
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("locating cell file: %v (path %q)", err, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionRefused(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"torn tail below header", func(b []byte) []byte { return b[:7] }},
		{"torn tail mid payload", func(b []byte) []byte { return b[:len(b)-9] }},
		{"interior bit flip", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"foreign file", func(b []byte) []byte { return []byte("not an envelope") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := mustOpen(t, dir, Options{})
			if err := r.Put(testEntry("k")); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir, tc.mutate)

			// Default policy: refuse with ErrDamaged.
			e, damaged, err := r.Get("fp01", "k")
			if e != nil || !damaged || !errors.Is(err, ErrDamaged) {
				t.Fatalf("refusing repo: got (%v, %v, %v), want (nil, true, ErrDamaged)", e, damaged, err)
			}
			if _, err := r.Walk(func(*Entry) error { return nil }); !errors.Is(err, ErrDamaged) {
				t.Fatalf("refusing walk: %v, want ErrDamaged", err)
			}

			// AllowDamage: a counted miss, not an error.
			tolerant := mustOpen(t, dir, Options{AllowDamage: true})
			e, damaged, err = tolerant.Get("fp01", "k")
			if e != nil || !damaged || err != nil {
				t.Fatalf("tolerant repo: got (%v, %v, %v), want (nil, true, nil)", e, damaged, err)
			}
			n, werr := tolerant.Walk(func(*Entry) error { return nil })
			if werr != nil || n != 1 {
				t.Fatalf("tolerant walk: damaged=%d err=%v", n, werr)
			}
		})
	}
}

func TestKeyAliasingDetected(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir, Options{})
	if err := r.Put(testEntry("k")); err != nil {
		t.Fatal(err)
	}
	// Move the intact cell to the path of a different key: the envelope
	// still verifies, but the payload's key no longer matches the path's
	// promise — the hash-collision case.
	orig := r.CellPath("fp01", "k")
	alias := r.CellPath("fp01", "other")
	if err := os.Rename(orig, alias); err != nil {
		t.Fatal(err)
	}
	e, damaged, err := r.Get("fp01", "other")
	if e != nil || !damaged || !errors.Is(err, ErrDamaged) {
		t.Fatalf("aliased cell: got (%v, %v, %v), want (nil, true, ErrDamaged)", e, damaged, err)
	}
}

func TestWalkSorted(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	keys := []string{"z|d|1|1", "a|d|1|1", "m|d|1|1"}
	for _, k := range keys {
		e := testEntry(k)
		if err := r.Put(e); err != nil {
			t.Fatal(err)
		}
		e2 := testEntry(k)
		e2.Fingerprint = "fp00"
		if err := r.Put(e2); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	damaged, err := r.Walk(func(e *Entry) error {
		got = append(got, e.Fingerprint+"/"+e.Key)
		return nil
	})
	if err != nil || damaged != 0 {
		t.Fatalf("walk: damaged=%d err=%v", damaged, err)
	}
	want := []string{
		"fp00/a|d|1|1", "fp00/m|d|1|1", "fp00/z|d|1|1",
		"fp01/a|d|1|1", "fp01/m|d|1|1", "fp01/z|d|1|1",
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestPutOverwrites(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e := testEntry("k")
	if err := r.Put(e); err != nil {
		t.Fatal(err)
	}
	e2 := testEntry("k")
	e2.Score = 0.99
	if err := r.Put(e2); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Get("fp01", "k")
	if err != nil || got == nil || got.Score != 0.99 {
		t.Fatalf("overwrite not visible: %+v err=%v", got, err)
	}
}

func TestEmptyRecordConfigRoundTripNil(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e := testEntry("k")
	e.Record = nil
	e.Config = nil
	if err := r.Put(e); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Get("fp01", "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Record != nil || got.Config != nil {
		t.Fatalf("empty blobs decoded non-nil: %v / %v", got.Record, got.Config)
	}
}
