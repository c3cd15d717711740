package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/faults"
	"repro/internal/repo"
)

// StoreReport describes one store a merge read.
type StoreReport struct {
	// Dir is the store's root directory.
	Dir string
	// Cells counts the grid cells the store held intact.
	Cells int
	// Damaged counts the grid cells whose stored bytes failed
	// verification (only possible under AllowDamage; otherwise damage
	// refuses the merge). A damaged cell is covered only if another
	// store holds it.
	Damaged int
}

// MergeResult is the outcome of fusing stores back into one grid's
// records.
type MergeResult struct {
	// Records holds every grid cell in canonical enumeration order —
	// the exact order an unsharded RunGrid returns, which is what makes
	// every export built from a merge byte-identical to the unsharded
	// artifact. Cells no store covered carry synthesized
	// faults.ShardFailure records (see Missing).
	Records []Record
	// Missing lists the cells no store covered, in canonical order.
	// Their Records entries are shard-failure placeholders; callers
	// decide whether that is a degraded-but-reportable sweep (a shard
	// exhausted its restarts) or an error (a shard never ran).
	Missing []CellRef
	// Damaged totals the damaged cells across all stores.
	Damaged int
	// PerStore reports each input store in argument order.
	PerStore []StoreReport
}

// MergeStores fuses the fingerprinted grid's cells out of a set of
// stores into the canonical record sequence. The result is independent
// of argument order, of the shard count and completion order that
// filled the stores, and of overlap between them: records are looked
// up by cell identity and emitted in enumeration order (refs), so any
// set of stores that together cover the grid reproduces the unsharded
// run's records — and therefore its exports — byte for byte.
//
// Every store must hold cells of the grid's fingerprint: an empty store
// or one holding only other grids is refused. Stores that hold the same
// cell must agree exactly — a disagreement means a determinism bug or a
// forged store, and is an error, never a silent pick. Damage follows
// each store's policy: refused by default, counted under AllowDamage.
// Cells no store covers are reported in Missing and filled with
// shard-failure placeholder records.
func MergeStores(stores []*repo.Repository, fingerprint string, refs []CellRef) (*MergeResult, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("bench: merge needs at least one store")
	}
	res := &MergeResult{PerStore: make([]StoreReport, len(stores))}
	for i, rp := range stores {
		fps, err := rp.Fingerprints()
		if err != nil {
			return nil, err
		}
		if len(fps) == 0 {
			return nil, fmt.Errorf("bench: store %s is empty — nothing to merge", rp.Dir())
		}
		if !slices.Contains(fps, fingerprint) {
			return nil, fmt.Errorf("bench: store %s holds no cells of grid fingerprint %s (only %s) — refusing to merge a different configuration", rp.Dir(), fingerprint, strings.Join(fps, ", "))
		}
		res.PerStore[i].Dir = rp.Dir()
	}
	for _, ref := range refs {
		var rec Record
		from := -1
		for i, rp := range stores {
			got, hit, damaged, err := repoLookup(rp, fingerprint, ref.ID())
			if err != nil {
				return nil, err
			}
			if damaged {
				res.PerStore[i].Damaged++
				res.Damaged++
			}
			if !hit {
				continue
			}
			res.PerStore[i].Cells++
			if from < 0 {
				rec, from = got, i
			} else if got != rec {
				return nil, fmt.Errorf("bench: stores %s and %s disagree about cell %s — determinism violation, refusing to merge", stores[from].Dir(), rp.Dir(), ref.ID())
			}
		}
		if from < 0 {
			res.Missing = append(res.Missing, ref)
			rec = ref.failureRecord(faults.ShardFailure)
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// VerifyMissingOwnedBy checks that every missing cell belongs to one of
// the given failed shards of an N-shard run. The coordinator uses this
// to distinguish graceful degradation (cells of a shard that exhausted
// its restarts are reported as shard failures) from a hole in the
// merge (a shard that claims completion but whose cells are not in the
// store — a bug worth refusing to paper over).
func (m *MergeResult) VerifyMissingOwnedBy(fingerprint string, failed []ShardSpec) error {
	for _, ref := range m.Missing {
		owned := false
		for _, s := range failed {
			if s.Owns(fingerprint, ref.ID()) {
				owned = true
				break
			}
		}
		if !owned {
			return fmt.Errorf("bench: cell %s is missing from the merge but no failed shard owns it — a completed shard left its cells out of the store", ref.ID())
		}
	}
	return nil
}
