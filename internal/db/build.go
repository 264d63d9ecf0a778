package db

import (
	"fmt"

	"cachemind/internal/parallel"
	"cachemind/internal/policy"
	"cachemind/internal/replay"
	"cachemind/internal/sim"
	"cachemind/internal/workload"
)

// BuildConfig parameterizes database construction. Every policy replays
// the *same* access stream per workload (same seed), so cross-policy
// questions compare identical traffic — the property the paper's
// policy-comparison tier depends on.
type BuildConfig struct {
	// Workloads to trace; defaults to the paper's trio (astar, lbm, mcf).
	Workloads []*workload.Workload
	// Policies to replay; defaults to the paper's four (belady, lru,
	// mlp, parrot).
	Policies []string
	// AccessesPerTrace is the stream length per (workload, policy);
	// defaults to 120000.
	AccessesPerTrace int
	// Seed drives workload generation and learned-policy training.
	Seed int64
	// LLC geometry; defaults to Table 2 (2048 sets, 16 ways).
	LLC sim.Config
	// SnapshotEvery samples heavyweight record fields (default 64).
	SnapshotEvery int
	// Parallelism bounds how many (workload, policy) replays run
	// concurrently. <= 0 selects runtime.NumCPU(); 1 reproduces the
	// serial build exactly. The resulting store is identical at every
	// setting: traces and oracles are generated once per workload and
	// shared read-only, and frames land in deterministic order.
	Parallelism int
}

func (c BuildConfig) withDefaults() BuildConfig {
	if len(c.Workloads) == 0 {
		c.Workloads = workload.Core()
	}
	if len(c.Policies) == 0 {
		c.Policies = policy.Core()
	}
	if c.AccessesPerTrace <= 0 {
		c.AccessesPerTrace = 120000
	}
	if c.LLC.Sets == 0 {
		c.LLC = sim.DefaultMachineConfig().LLC
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
	return c
}

// Build generates traces, replays them under every policy and assembles
// the store. Deterministic for a fixed config, at every Parallelism.
func Build(cfg BuildConfig) (*Store, error) {
	cfg = cfg.withDefaults()

	// Workloads fan out, and within each workload the policy replays
	// fan out (both bounded by Parallelism — the knob is per fan-out
	// level). Each workload's trace, training stream and stream
	// annotations (next-use oracle, reuse distances, recencies) are
	// generated once and shared read-only by its policy replays, then
	// released when the workload's frames are done — so
	// Parallelism=1 keeps the old serial loop's one-workload-resident
	// memory profile. Frames land in input order at every setting.
	frameGroups, err := parallel.Map(len(cfg.Workloads), cfg.Parallelism, func(wi int) ([]*Frame, error) {
		w := cfg.Workloads[wi]
		accs := w.Generate(cfg.AccessesPerTrace, cfg.Seed)
		// Learned policies train on a disjoint stream of the same
		// workload (different seed), never on the evaluation trace.
		train := w.Generate(cfg.AccessesPerTrace/2, cfg.Seed+1)
		ann := replay.Annotate(accs)
		return parallel.Map(len(cfg.Policies), cfg.Parallelism, func(pi int) (*Frame, error) {
			polName := cfg.Policies[pi]
			pol, err := policy.New(polName, cfg.LLC, policy.Options{
				Seed:   cfg.Seed,
				Oracle: ann.NextUse,
				Train:  train,
			})
			if err != nil {
				return nil, fmt.Errorf("db: building %s/%s: %w", w.Name(), polName, err)
			}
			res := replay.Run(accs, cfg.LLC, pol, replay.Options{SnapshotEvery: cfg.SnapshotEvery, Annotations: &ann})
			f, err := frameFromReplay(w, polName, res)
			if err != nil {
				return nil, fmt.Errorf("db: building %s/%s: %w", w.Name(), polName, err)
			}
			return f, nil
		})
	})
	if err != nil {
		return nil, err
	}

	store := NewStore()
	for _, group := range frameGroups {
		for _, f := range group {
			store.Put(f)
		}
	}
	return store, nil
}

// MustBuild is Build for static configurations; it panics on error.
func MustBuild(cfg BuildConfig) *Store {
	s, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func frameFromReplay(w *workload.Workload, polName string, res replay.Result) (*Frame, error) {
	sum := FrameSummary{
		Accesses:        res.Summary.Accesses,
		Hits:            res.Summary.Hits,
		Misses:          res.Summary.Misses,
		Evictions:       res.Summary.Evictions,
		ColdMisses:      res.Summary.ColdMisses,
		CapacityMisses:  res.Summary.CapacityMisses,
		ConflictMisses:  res.Summary.ConflictMisses,
		WrongEvictions:  res.Summary.WrongEvictions,
		RecencyMissCorr: res.Summary.RecencyMissCorr,
	}
	desc := fmt.Sprintf("Workload: %s Replacement policy: %s", w.Description(), policy.Describe(polName))
	return NewFrame(w.Name(), polName, res.Records, w.Symbols(), sum, desc)
}
