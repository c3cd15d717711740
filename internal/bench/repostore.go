package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"repro/internal/automl"
	"repro/internal/repo"
	"repro/internal/tabular"
)

// Glue between the grid and the evaluation repository, the grid's only
// durable per-cell state: records cross the boundary as their canonical
// JSON (so a replayed cell is byte-for-byte the record a live run would
// produce), probabilities as contiguous slabs (so a hit is one copy),
// and the repository itself stays bench-agnostic — it never decodes
// what it stores. Resuming a killed run is a warm replay against the
// same store, and sharded runs write into one shared store: cell files
// are addressed by (fingerprint, cell key), shards own disjoint cells,
// and every write is an atomic temp+fsync+rename.

// cellID is the repository key of one grid cell.
func cellID(system, dataset string, budget time.Duration, seed uint64) string {
	return fmt.Sprintf("%s|%s|%d|%d", system, dataset, budget, seed)
}

// Fingerprint digests everything that determines a grid's records —
// system lineup, datasets, budgets, seeds, scale, machine, fault and
// retry configuration — so a store only ever replays cells into the
// exact grid that produced them. Pure throughput and liveness knobs
// (Workers, Watchdog) are deliberately excluded: neither can change a
// record.
func Fingerprint(systems []automl.System, cfg Config) string {
	cfg = cfg.normalized()
	h := fnv.New64a()
	for _, sys := range systems {
		fmt.Fprintf(h, "sys:%s;", sys.Name())
	}
	for _, spec := range cfg.Datasets {
		fmt.Fprintf(h, "ds:%d/%s;", spec.ID, spec.Name)
	}
	for _, b := range cfg.Budgets {
		fmt.Fprintf(h, "b:%d;", b)
	}
	fmt.Fprintf(h, "machine:%s;cores:%d;gpu:%d;", cfg.Machine.Name, cfg.Cores, cfg.GPUMode)
	fmt.Fprintf(h, "scale:%+v;seeds:%d;seed:%d;", cfg.Scale, cfg.Seeds, cfg.Seed)
	fmt.Fprintf(h, "faults:%+v;retry:%+v;", cfg.Faults, cfg.Retry)
	return fmt.Sprintf("%016x", h.Sum64())
}

// repoLookup consults the repository for one cell. hit reports a
// verified entry whose record decoded; damaged reports a cell that
// exists but failed verification and was tolerated (AllowDamage). A
// refused damaged cell — or an entry whose record bytes do not decode,
// which is damage the envelope CRC cannot see — returns an error.
func repoLookup(rp *repo.Repository, fingerprint, id string) (rec Record, hit, damaged bool, err error) {
	e, damaged, err := rp.Get(fingerprint, id)
	if err != nil {
		return Record{}, false, damaged, err
	}
	if e == nil {
		return Record{}, false, damaged, nil
	}
	if err := json.Unmarshal(e.Record, &rec); err != nil {
		if rp.AllowsDamage() {
			return Record{}, false, true, nil
		}
		return Record{}, false, true, fmt.Errorf("bench: repository cell %s: %w: undecodable record: %w", id, repo.ErrDamaged, err)
	}
	if got := cellID(rec.System, rec.Dataset, rec.Budget, rec.Seed); got != id {
		if rp.AllowsDamage() {
			return Record{}, false, true, nil
		}
		return Record{}, false, true, fmt.Errorf("bench: repository cell %s: %w: record identifies as %s", id, repo.ErrDamaged, got)
	}
	return rec, true, false, nil
}

// crashFn is the chaos hook every store write passes through: point is
// crashStoreStart or crashStoreDone, seq the zero-based write index,
// and path the cell's content address. A non-nil return simulates the
// process dying there (the hook may first rewind the write on disk).
type crashFn func(point string, seq int, path string) error

// The deterministic crash points of a store write.
const (
	// crashStoreStart fires before any byte of the cell is written.
	crashStoreStart = "start"
	// crashStoreDone fires once the cell is renamed into place and
	// durable; a kill here loses nothing but the acknowledgement.
	crashStoreDone = "done"
)

// cellStore is the grid's write-back path: one Put per executed cell,
// numbered so a crash hook can target the N-th write.
type cellStore struct {
	rp          *repo.Repository
	fingerprint string
	crash       crashFn
	writes      atomic.Int64
	stored      atomic.Int64
}

// put writes one freshly executed cell back to the repository. It is a
// no-op without a repository or with a read-only one; an actual write
// failure is an error — a store that silently drops cells would poison
// every later warm run's zero-fit expectation, and a resumed run would
// silently refit. A cell that produced no predictions (its dataset
// never materialized, or even the fallback predictor failed) is stored
// as a zero-row entry: its record is the whole result, and storing it
// is what lets a warm replay skip it too.
func (s *cellStore) put(id string, rec Record, payload *cellPayload) error {
	if s.rp == nil || s.rp.ReadOnly() {
		return nil
	}
	recBytes, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bench: encoding record for repository: %w", err)
	}
	entry := &repo.Entry{
		Fingerprint: s.fingerprint,
		Key:         id,
		System:      rec.System,
		Dataset:     rec.Dataset,
		Record:      recBytes,
	}
	if payload != nil {
		slab, err := tabular.FlattenRows(payload.proba, payload.classes)
		if err != nil {
			return fmt.Errorf("bench: flattening cell %s predictions: %w", id, err)
		}
		entry.Score = payload.score
		entry.Config = payload.config
		entry.Rows = len(payload.proba)
		entry.Classes = payload.classes
		entry.Proba = slab
		entry.InferCost = payload.inferCost
	}
	seq := int(s.writes.Add(1) - 1)
	if err := s.crashAt(crashStoreStart, seq, id); err != nil {
		return err
	}
	if err := s.rp.Put(entry); err != nil {
		return err
	}
	s.stored.Add(1)
	return s.crashAt(crashStoreDone, seq, id)
}

// crashAt consults the chaos hook, if any, at one crash point.
func (s *cellStore) crashAt(point string, seq int, id string) error {
	if s.crash == nil {
		return nil
	}
	if err := s.crash(point, seq, s.rp.CellPath(s.fingerprint, id)); err != nil {
		return fmt.Errorf("bench: storing cell %s: %w", id, err)
	}
	return nil
}

// Summary renders the stats the way run summaries print them.
func (s RepoStats) Summary() string {
	return fmt.Sprintf("repository: %d hit(s), %d miss(es), %d damaged, %d stored",
		s.Hits, s.Misses, s.Damaged, s.Stored)
}
