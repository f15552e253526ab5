// The kernel decision cache (§2.8).
//
// Caches guard verdicts keyed by the access-control tuple (subject,
// operation, object). The tuple is interned: lookups hash three integers,
// never strings (string-taking overloads intern-and-forward). Two
// invalidation granularities exist:
//   - a proof update clears the single affected entry;
//   - a setgoal may affect many entries, so the hash function places all
//     entries with the same (operation, object) into the same *subregion*
//     and setgoal clears that subregion.
// Subregion size is configurable and trades invalidation cost against
// collision rate (an ablation benchmark sweeps it).
//
// The cache is SHARDED by Mix64(subject) so a multi-worker authorization
// frontend scales: each shard holds its own subregion array, statistics,
// and lock; an insert takes exactly one shard mutex, and a lookup takes
// none unless it races a writer (see the seqlock below). Because
// the shard function ignores (operation, object), a setgoal invalidation
// broadcasts the subregion clear to every shard; per-shard stats aggregate
// on read.
//
// Every (shard, subregion) carries a GENERATION, bumped on invalidation,
// Clear, and Resize. A caller computing a verdict outside the cache lock
// (the kernel's engine upcall) snapshots the generation before the upcall
// and inserts with InsertIfUnchanged: a concurrent setgoal/setproof that
// invalidated the subregion in between bumps the generation and the stale
// verdict is dropped instead of cached — preserving the serial decision
// order the flush-boundary discipline defines.
//
// A HIT takes no lock and writes no shared cache line. Each shard carries
// a sequence word, even when stable and odd while a writer (insert,
// invalidation, Clear — all under the shard mutex) is mid-update. Lookup
// reads the word, probes the entries through relaxed atomic loads, and
// re-reads the word: unchanged and even means the probe saw one stable
// state, otherwise the lookup retries under the shard mutex. The counters
// it bumps are per-thread cells (util/metrics.h).
#ifndef NEXUS_KERNEL_DECISION_CACHE_H_
#define NEXUS_KERNEL_DECISION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "kernel/types.h"
#include "util/metrics.h"

namespace nexus::kernel {

class DecisionCache {
 public:
  struct Config {
    // Per shard; total capacity is num_shards * num_subregions *
    // entries_per_subregion. (num_shards is last so legacy positional
    // initializers keep their meaning.)
    size_t num_subregions = 64;
    size_t entries_per_subregion = 64;
    size_t num_shards = 8;
  };

  // Snapshot view of the registry-backed per-shard counters ("cache.*" in
  // the metrics plane). Per-instance semantics are unchanged: a fresh cache
  // (or a Resize) starts from zero; the registry separately accumulates
  // process-lifetime totals.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidated_entries = 0;
    uint64_t subregion_invalidations = 0;
  };

  DecisionCache();
  explicit DecisionCache(const Config& config);

  // Returns the cached verdict, if any. Thread-safe.
  std::optional<bool> Lookup(const AuthzRequest& request);
  std::optional<bool> Lookup(ProcessId subject, std::string_view operation,
                             std::string_view object) {
    return Lookup(AuthzRequest::Of(subject, operation, object));
  }

  // Records a verdict (only cacheable decisions should be inserted).
  // Thread-safe.
  void Insert(const AuthzRequest& request, bool allow);
  void Insert(ProcessId subject, std::string_view operation, std::string_view object,
              bool allow) {
    Insert(AuthzRequest::Of(subject, operation, object), allow);
  }

  // The current generation of the subregion holding `request`. Snapshot it
  // before computing a verdict outside the cache lock; pass it to
  // InsertIfUnchanged to drop the verdict if an invalidation raced it.
  uint64_t Generation(const AuthzRequest& request) const;

  // The generation of (op, obj)'s subregion in EVERY shard, in shard
  // order. This is the mutation log's stamp: read after an invalidation
  // bump it tells a trace auditor exactly which cached-verdict window the
  // mutation retired, per shard. Each shard is locked in turn (not a
  // global snapshot; generations only grow, which is all the auditor
  // needs).
  std::vector<uint64_t> SubregionGenerations(OpId op, ObjectId obj) const;

  // The subregion index function, exposed so an external auditor can
  // compute which subregion a (op, obj) pair lands in. Subject is
  // deliberately excluded (see SubregionIndex in the .cc).
  static size_t SubregionIndexOf(OpId op, ObjectId obj, size_t num_subregions);

  // Inserts `allow` only if the subregion generation still equals
  // `generation` (no invalidation landed since the snapshot). Returns
  // whether the insert happened. Thread-safe.
  bool InsertIfUnchanged(const AuthzRequest& request, bool allow, uint64_t generation);

  // Proof update: clears the single matching entry (it lives only in the
  // subject's shard) and bumps that subregion's generation. Thread-safe.
  // When `post_gen` is non-null it receives the EXACT post-bump generation
  // of the bumped (shard, subregion) — read under the same lock as the
  // bump, so it cannot overshoot (the mutation-log auditor depends on
  // exact stamps to order mutations on the generation axis).
  void InvalidateEntry(const AuthzRequest& request, uint64_t* post_gen = nullptr);
  void InvalidateEntry(ProcessId subject, std::string_view operation,
                       std::string_view object) {
    InvalidateEntry(AuthzRequest::Of(subject, operation, object));
  }

  // setgoal: clears the subregion holding all entries for (operation,
  // object) in EVERY shard (subjects hash across shards). Thread-safe.
  // `post_gens`, when non-null, receives the exact post-bump generation of
  // every shard (same exactness contract as InvalidateEntry).
  void InvalidateSubregion(OpId op, ObjectId obj,
                           std::vector<uint64_t>* post_gens = nullptr);
  void InvalidateSubregion(std::string_view operation, std::string_view object) {
    InvalidateSubregion(InternOp(operation), InternObject(object));
  }

  // Drops everything (the cache is soft state; this is always safe).
  void Clear();

  // Runtime resize (any field, including the shard count); drops contents.
  // Not safe concurrently with other operations — quiesce the frontend
  // first (the cache is reconfigured, not just mutated).
  void Resize(const Config& config);

  // Aggregated over all shards (by value: shards tally independently).
  Stats stats() const;
  // One shard's tally, for tests and ablation benchmarks.
  Stats shard_stats(size_t shard) const;
  // Which shard `subject`'s entries live in.
  size_t ShardOf(ProcessId subject) const;

  const Config& config() const { return config_; }

 private:
  struct Entry {
    // The subregion generation this entry was inserted under; the entry is
    // live iff it equals the current generation (epoch invalidation:
    // clearing a subregion is one counter bump, not an entry walk).
    // Generations start at 1, so a zero-initialized entry is never live.
    uint64_t generation = 0;
    bool allow = false;
    ProcessId subject = 0;
    OpId op = 0;
    ObjectId obj = 0;
  };

  // A shard owns its mutex; unique_ptr keeps the vector reconfigurable.
  // Entry fields and generations are read by the lock-free Lookup, so they
  // are only ever accessed through std::atomic_ref (relaxed); writers also
  // hold `mu` and bracket their stores with `seq` (see file comment).
  // Tallies are registry instruments (metrics plane, "cache.*"), one set
  // per shard; stats() sums them, the registry snapshot aggregates them.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::atomic<uint64_t> seq{0};  // Odd while a writer is mid-update.
    std::vector<Entry> entries;       // num_subregions * entries_per_subregion
    std::vector<uint64_t> generations;  // per subregion
    metrics::Counter* hits = nullptr;
    metrics::Counter* misses = nullptr;
    metrics::Counter* insertions = nullptr;
    metrics::Counter* invalidated_entries = nullptr;
    metrics::Counter* subregion_invalidations = nullptr;
  };
  class WriteSection;

  size_t SubregionIndex(OpId op, ObjectId obj) const;
  // The verdict of the live entry matching `request`, or nullopt. Safe both
  // under shard.mu and inside a seqlock read (every load is atomic and
  // every index is bounded by the immutable config).
  std::optional<bool> Probe(const Shard& shard, const AuthzRequest& request) const;
  // Caller holds shard.mu.
  void InsertLocked(Shard& shard, const AuthzRequest& request, bool allow);
  // Bumps subregion `sub` of `shard` and returns the new generation.
  // Caller holds shard.mu.
  uint64_t BumpLocked(Shard& shard, size_t sub);

  Config config_;
  // Declared before shards_: shard counters live in the group and must
  // outlive them (destruction runs in reverse order).
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "cache"};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_DECISION_CACHE_H_
