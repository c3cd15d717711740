package bench

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/automl"
	"repro/internal/faults"
)

// ShardSpec selects one content-addressed slice of the benchmark grid.
// The zero value means "unsharded": the whole grid.
//
// Shard assignment is fingerprint-keyed and cell-addressed: a cell
// belongs to shard fnv64a(fingerprint|cellID) mod Count. The key never
// depends on enumeration position, worker count, or which other cells
// exist, so the assignment is stable across runs. Every cell of the
// grid is owned by exactly one shard of a given Count, and the union of
// shards 0..Count-1 is the full grid, which is why shards of any count
// can write into one shared store and MergeStores finds no holes.
type ShardSpec struct {
	// Index identifies this shard, in [0, Count).
	Index int
	// Count is the total number of shards. Zero means unsharded.
	Count int
}

// ParseShardSpec parses the -shard flag syntax "i/N". The index must
// satisfy 0 <= i < N and N must be positive; anything else is a
// configuration error, not a silently empty shard.
func ParseShardSpec(s string) (ShardSpec, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return ShardSpec{}, fmt.Errorf("bench: malformed shard %q: want index/count, e.g. 0/4", s)
	}
	idx, err := strconv.Atoi(s[:i])
	if err != nil {
		return ShardSpec{}, fmt.Errorf("bench: malformed shard index in %q: %w", s, err)
	}
	count, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return ShardSpec{}, fmt.Errorf("bench: malformed shard count in %q: %w", s, err)
	}
	spec := ShardSpec{Index: idx, Count: count}
	if err := spec.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// Validate rejects impossible shard coordinates.
func (s ShardSpec) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("bench: shard count %d must be positive", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("bench: shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Enabled reports whether the spec selects a shard (vs. the whole grid).
func (s ShardSpec) Enabled() bool { return s.Count > 0 }

// String renders the spec in the -shard flag syntax; the zero
// (unsharded) value renders empty.
func (s ShardSpec) String() string {
	if !s.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// shardIndexOf maps a cell to its owning shard index among count
// shards. The hash covers the grid fingerprint and the cell identity
// and nothing else. FNV-1a's low bits diffuse poorly — modulo a
// power-of-two shard count they collapse to a 4-state automaton over
// the input's low bits, which skews the partition badly — so the sum is
// run through a 64-bit avalanche finalizer before the modulo.
func shardIndexOf(fingerprint, id string, count int) int {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	h.Write([]byte{'|'})
	h.Write([]byte(id))
	return int(mix64(h.Sum64()) % uint64(count))
}

// mix64 is the murmur3/splitmix finalizer: a bijective avalanche that
// spreads every input bit into every output bit, so taking the result
// modulo a small count is as fair as the hash itself.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owns reports whether the shard owns the given cell of the
// fingerprinted grid. The unsharded spec owns everything.
func (s ShardSpec) Owns(fingerprint, id string) bool {
	if !s.Enabled() {
		return true
	}
	return shardIndexOf(fingerprint, id, s.Count) == s.Index
}

// CellRef is the identity of one grid cell — the fields cellID encodes.
// EnumerateCellRefs yields them in canonical grid order without paying
// for dataset generation, which is what lets the merge machinery
// reassemble stored cells into the exact record order an unsharded run
// produces.
type CellRef struct {
	System  string
	Dataset string
	Budget  time.Duration
	Seed    uint64
}

// ID returns the cell's repository key.
func (c CellRef) ID() string { return cellID(c.System, c.Dataset, c.Budget, c.Seed) }

// failureRecord synthesizes a failure record for a cell that never
// executed because its owning shard died: the grid does not shrink, the
// failure is visible in the taxonomy, and every field that identifies
// the cell is preserved.
func (c CellRef) failureRecord(kind faults.Kind) Record {
	return Record{
		System:  c.System,
		Dataset: c.Dataset,
		Budget:  c.Budget,
		Seed:    c.Seed,
		Failure: kind,
	}
}

// EnumerateCellRefs walks the grid in the exact order enumerateGrid
// does — dataset outermost, then seed, system, budget, with sub-minimum
// budgets skipped — and returns every cell's identity. It is the
// enumeration half of the scheduler without the execution inputs
// (datasets, splits), cheap enough for merge-time use.
func EnumerateCellRefs(systems []automl.System, cfg Config) []CellRef {
	cfg = cfg.normalized()
	var refs []CellRef
	for di, spec := range cfg.Datasets {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cellSeed := uint64(seed)*1009 + uint64(di)
			for _, sys := range systems {
				for _, budget := range cfg.Budgets {
					if budget < sys.MinBudget() {
						continue
					}
					refs = append(refs, CellRef{
						System:  sys.Name(),
						Dataset: spec.Name,
						Budget:  budget,
						Seed:    cellSeed,
					})
				}
			}
		}
	}
	return refs
}

// ShardRun is the outcome of one sharded (or whole-grid) run.
type ShardRun struct {
	// Records holds the executed (or store-replayed) cells in canonical
	// grid order — for a sharded run, only the shard's cells.
	Records []Record
	// Repo reports the run's evaluation-repository traffic; the zero
	// value means no repository was configured.
	Repo RepoStats
}

// RunShard executes the cfg.Shard slice of the grid (the whole grid
// when cfg.Shard is zero). With cfg.Repo set, stored cells replay
// without executing and executed cells are written back as they
// finish, so a killed shard resumes by rerunning it against the same
// store. The third parameter is all that is left of the retired run
// journal: it stays so existing callers keep compiling, and a non-empty
// value is an error that points to cfg.Repo.
func RunShard(systems []automl.System, cfg Config, journal string) (ShardRun, error) {
	if journal != "" {
		return ShardRun{}, fmt.Errorf("bench: run journal %q is no longer supported: set Config.Repo to a store to make the run resumable", journal)
	}
	if err := validateShard(cfg); err != nil {
		return ShardRun{}, err
	}
	records, stats, err := runGrid(systems, cfg, nil)
	if err != nil {
		return ShardRun{}, err
	}
	return ShardRun{Records: records, Repo: stats}, nil
}

func validateShard(cfg Config) error {
	if cfg.Shard == (ShardSpec{}) {
		return nil
	}
	return cfg.Shard.Validate()
}
