// The kernel-wide metrics plane.
//
// Named instruments cheap enough for the authorization hot path: counters
// are per-thread cells summed on read, gauges are single relaxed atomics,
// histograms are log2-bucketed tallies fed cycle counts from
// util/cycles.h. Components own their instruments through a MetricGroup
// (so per-instance semantics — a fresh Guard starts its counters at zero —
// are preserved exactly), and every group registers with a process-global
// Registry whose snapshot aggregates same-named instruments across
// instances.
//
// Lifetime: instruments live inside their MetricGroup (deque-backed, so
// pointers handed to the owning component stay stable). When a group is
// destroyed — its component died — the final values are RETIRED into the
// registry's accumulation map instead of vanishing, so a process-lifetime
// snapshot (the bench JSON dump, /stats reads after component churn) still
// reports everything that ever happened.
//
// Threading: Increment/Set/Record never synchronize data, only tally. A
// Counter increment writes only the calling thread's own cache-line cell,
// so a hot counter bumped from every core (kernel.calls, cache.hits) is no
// longer one line bouncing between them. Snapshot/Render take the registry
// mutex, then each group's mutex (always in that order; group
// construction/destruction takes the registry mutex without holding its
// own). Reads in a snapshot are relaxed loads: a snapshot racing live
// increments sees, per cell, a value the cell actually passed through, and
// a quiescent counter reads exactly the sum of its increments.
#ifndef NEXUS_UTIL_METRICS_H_
#define NEXUS_UTIL_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace nexus::metrics {

namespace internal {

inline constexpr uint32_t kNoCell = ~uint32_t{0};
// The calling thread's counter slot (its cell is slot % Counter::kCells),
// or kNoCell before its first increment. Constant-initialized, so reading
// it is a plain TLS load.
inline constinit thread_local uint32_t this_thread_cell = kNoCell;
// Slow path of CellIndex: claims the lowest slot no live thread holds
// (released again at thread exit) and caches it in this_thread_cell.
uint32_t ClaimCell();

inline uint32_t CellIndex() {
  uint32_t cell = this_thread_cell;
  return cell != kNoCell ? cell : ClaimCell();
}

}  // namespace internal

// A monotonic tally split into cache-line-padded per-thread cells. Up to
// kCells live threads each own a cell outright; more threads share cells
// (slot modulo kCells), which the atomic add keeps exact. Value() sums the
// cells, so reads cost kCells loads and increments cost no shared write.
class Counter {
 public:
  static constexpr size_t kCells = 8;

  void Increment(uint64_t delta = 1) {
    cells_[internal::CellIndex() % kCells].value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kCells];
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed latency histogram: bucket i counts samples whose bit width
// is i (i.e. sample in [2^(i-1), 2^i)), bucket 0 counts zeros. Recording is
// three relaxed increments; quantiles are estimated from bucket upper
// bounds, which is as exact as a power-of-two binning can be and plenty for
// "did tracing add 5%?" questions.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;  // bit_width(uint64_t) in 0..64.

  void Record(uint64_t sample) {
    buckets_[std::bit_width(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t bucket) const {
    return bucket < kNumBuckets ? buckets_[bucket].load(std::memory_order_relaxed) : 0;
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// One instrument's value in a snapshot. Histograms carry their full bucket
// vector so snapshots merge losslessly across instances and retirements.
struct InstrumentValue {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  int64_t value = 0;           // Counter / gauge.
  uint64_t count = 0;          // Histogram.
  uint64_t sum = 0;            // Histogram.
  std::vector<uint64_t> buckets;  // Histogram (kNumBuckets entries).

  void MergeFrom(const InstrumentValue& other);
  // Smallest power-of-two upper bound covering quantile `q` (0..1).
  uint64_t ApproxQuantile(double q) const;
};

using Snapshot = std::map<std::string, InstrumentValue>;

class MetricGroup;

// The process-global instrument index. Components register MetricGroups;
// Snapshot() merges every live group's instruments with the retired totals
// of dead ones, keyed by "<group prefix>.<instrument name>".
class Registry {
 public:
  static Registry& Global();

  // All instruments whose full name starts with `prefix` ("" = everything).
  Snapshot TakeSnapshot(std::string_view prefix = {}) const;

  // procfs-friendly rendering: one "name value" line per instrument,
  // histograms as "name count=N sum=S p50=X p99=Y".
  std::string RenderText(std::string_view prefix = {}) const;
  // Flat JSON object for the bench artifact dump: counters/gauges as
  // numbers, histograms as {"count":..,"sum":..,"p50":..,"p99":..}.
  std::string RenderJson() const;

 private:
  friend class MetricGroup;
  void Register(MetricGroup* group);
  void Unregister(MetricGroup* group);  // Retires the group's final values.

  mutable std::mutex mu_;
  std::set<MetricGroup*> groups_;
  Snapshot retired_;
};

// A component's named instruments under one prefix ("guard", "cache", ...).
// NewCounter/NewGauge/NewHistogram return stable pointers owned by the
// group; creation is thread-safe but intended for construction time.
// Destruction retires final values into the registry (see file comment).
class MetricGroup {
 public:
  MetricGroup(Registry* registry, std::string prefix);
  ~MetricGroup();

  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  Counter* NewCounter(std::string_view name);
  Gauge* NewGauge(std::string_view name);
  Histogram* NewHistogram(std::string_view name);

  const std::string& prefix() const { return prefix_; }

 private:
  friend class Registry;
  // Merges this group's current values into `out`. Caller holds the
  // registry mutex; takes the group mutex (registry -> group order).
  void CollectInto(Snapshot* out) const;

  Registry* registry_;
  std::string prefix_;
  mutable std::mutex mu_;
  // deques: instrument addresses never move after NewX returns them.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
};

// Writes Registry::Global().RenderJson() to the path named by the
// NEXUS_METRICS_OUT environment variable, if set. Benchmark mains call
// this at exit so CI archives a metrics snapshot next to each bench
// artifact (and can fail if hot-path counters are all zero).
void DumpRegistryToEnvPath();

}  // namespace nexus::metrics

#endif  // NEXUS_UTIL_METRICS_H_
