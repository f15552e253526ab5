// Shared pieces of the end-to-end benchmark: the clock, a log-linear
// latency histogram, and the span tracer with its forwarding wrappers
// around the program's plug points (engine upcall, interceptors, port
// handlers).
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "kernel/kernel.h"

namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Log-linear histogram: exact below 512 ns, then 256 buckets per octave
// (0.39% relative width, i.e. sub-microsecond up to ~250 us). Quantiles
// interpolate linearly inside the bucket, so a median is not pinned to a
// bucket edge. Fixed 35 KiB per instance whatever the run length, so the
// recorder does not grow the process's resident set with the work done.
class Histogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr uint64_t kExact = uint64_t{1} << kSubBits;
  static constexpr uint64_t kHalf = kExact / 2;
  static constexpr size_t kBuckets = kExact + 40 * kHalf;

  Histogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++total_;
  }
  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }
  void Reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }
  uint64_t count() const { return total_; }

  // q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(total_ - 1);
    uint64_t before = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) {
        continue;
      }
      if (rank < static_cast<double>(before + c)) {
        const double within = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        return static_cast<double>(Lower(i)) + within * static_cast<double>(Width(i));
      }
      before += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kExact) {
      return static_cast<size_t>(v);
    }
    const int shift = std::bit_width(v) - kSubBits;  // >= 1
    const uint64_t top = v >> shift;                 // [kHalf, kExact)
    const size_t idx = kExact + static_cast<size_t>(shift - 1) * kHalf + (top - kHalf);
    return idx < kBuckets ? idx : kBuckets - 1;
  }
  static uint64_t Lower(size_t i) {
    if (i < kExact) {
      return i;
    }
    const size_t shift = (i - kExact) / kHalf + 1;
    const uint64_t top = kHalf + (i - kExact) % kHalf;
    return top << shift;
  }
  static uint64_t Width(size_t i) {
    return i < kExact ? 1 : uint64_t{1} << ((i - kExact) / kHalf + 1);
  }

  std::vector<uint32_t> counts_;  // Per bucket; one run stays far below 2^32 samples.
  uint64_t total_ = 0;
};

// ------------------------------------------------------------------ spans
// Layers a span can belong to. Caller-side spans (the first group) wrap
// the benchmark's own calls into the kernel and core; the rest are
// recorded by the forwarding wrappers installed in the program's plug
// points.
enum Layer : uint8_t {
  kSpanCall,
  kSpanCallMany,
  kSpanInvokeRead,
  kSpanInvokeWrite,
  kSpanAuthorize,
  kSpanSetGoal,
  kSpanSetProof,
  kSpanSay,
  kSpanChurn,
  kSpanIntern,
  kSpanHandler,
  kSpanDdrm,
  kSpanRedactor,
  kSpanEngineMiss,
  kSpanEngineBatch,
  kLayerCount,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  uint64_t root = 0;   // Root-operation id shared by every span of one request.
  int32_t parent = -1; // Index of the parent record in the same sample, -1 for a root.
  Layer layer = kSpanCall;
  uint64_t start = 0;
  uint64_t end = 0;
};

// Per-thread span state. Durations and self times (span minus the part
// of it that child spans cover) go into per-layer histograms; every 4096th
// root operation keeps its full span records, written out after the run.
class ThreadTrace {
 public:
  static constexpr uint64_t kSampleEvery = 4096;

  ThreadTrace() : per_item_(kLayerCount), self_(kLayerCount), items_(kLayerCount, 0) {}

  void Open(Layer layer, uint64_t now) {
    Frame& f = stack_[depth_];
    f.layer = layer;
    f.start = now;
    f.child_ns = 0;
    f.child_count.fill(0);
    f.child_ns_of.fill(0);
    f.record = -1;
    if (depth_ == 0) {
      ++root_;
      sampling_ = root_ % kSampleEvery == 0;
    }
    if (sampling_) {
      SpanRecord r;
      r.root = root_;
      r.parent = depth_ == 0 ? -1 : stack_[depth_ - 1].record;
      r.layer = layer;
      r.start = now;
      f.record = static_cast<int32_t>(samples_.size());
      samples_.push_back(r);
    }
    ++depth_;
  }

  // `items` divides the duration for per-item layers (CallMany, batches).
  void Close(uint64_t now, uint64_t items = 1) {
    --depth_;
    Frame& f = stack_[depth_];
    const uint64_t dur = now - f.start;
    const uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
    per_item_[f.layer].Record(items == 0 ? dur : dur / items);
    self_[f.layer].Record(self);
    items_[f.layer] += items;
    if (f.layer == kSpanCall && depth_ == 0) {
      CheckCall(f);
    }
    if (f.record >= 0) {
      samples_[static_cast<size_t>(f.record)].end = now;
    }
    if (depth_ > 0) {
      Frame& parent = stack_[depth_ - 1];
      parent.child_ns += dur;
      ++parent.child_count[f.layer];
      parent.child_ns_of[f.layer] += dur;
    }
  }

  const Histogram& per_item(Layer layer) const { return per_item_[layer]; }
  const Histogram& self(Layer layer) const { return self_[layer]; }
  uint64_t items(Layer layer) const { return items_[layer]; }
  uint64_t calls_checked() const { return calls_checked_; }
  uint64_t calls_missing_taps() const { return calls_missing_taps_; }
  // Over root Calls: the DDRM monitor's spans (OnCall + OnReply) and the
  // handler span, each summed per Call.
  const Histogram& call_ddrm() const { return call_ddrm_; }
  const Histogram& call_handler() const { return call_handler_; }
  const std::vector<SpanRecord>& samples() const { return samples_; }

 private:
  struct Frame {
    Layer layer = kSpanCall;
    uint64_t start = 0;
    uint64_t child_ns = 0;  // Sum of the direct children's durations.
    std::array<uint16_t, kLayerCount> child_count{};  // Direct children per layer.
    std::array<uint64_t, kLayerCount> child_ns_of{};  // Their durations per layer.
    int32_t record = -1;
  };

  // Every Call on the benchmark's service port crosses the DDRM monitor
  // twice (OnCall, then OnReply; the service itself returns the denials)
  // and the handler once. A Call without exactly those child spans means a
  // forwarding wrapper is missing, and the layer split would be wrong.
  void CheckCall(const Frame& f) {
    ++calls_checked_;
    if (f.child_count[kSpanDdrm] != 2 || f.child_count[kSpanHandler] != 1) {
      ++calls_missing_taps_;
      return;
    }
    call_ddrm_.Record(f.child_ns_of[kSpanDdrm]);
    call_handler_.Record(f.child_ns_of[kSpanHandler]);
  }
  std::array<Frame, 32> stack_{};
  size_t depth_ = 0;
  uint64_t root_ = 0;
  bool sampling_ = false;
  std::vector<Histogram> per_item_;
  std::vector<Histogram> self_;
  std::vector<uint64_t> items_;
  uint64_t calls_checked_ = 0;
  uint64_t calls_missing_taps_ = 0;
  Histogram call_ddrm_;
  Histogram call_handler_;
  std::vector<SpanRecord> samples_;
};

// The calling thread's tracer; null on untraced runs and on threads that
// are not benchmark callers, so every span site is one TLS load and a
// branch when tracing is off.
inline thread_local ThreadTrace* tls_trace = nullptr;

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, uint64_t items = 1) : trace_(tls_trace), items_(items) {
    if (trace_ != nullptr) {
      trace_->Open(layer, NowNs());
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->Close(NowNs(), items_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  uint64_t items_;
};

// --------------------------------------------------------------- wrappers
// Engine upcall: installed with Kernel::set_engine in front of core::Engine.
class EngineTap : public nexus::kernel::AuthorizationEngine {
 public:
  explicit EngineTap(nexus::kernel::AuthorizationEngine* inner) : inner_(inner) {}
  nexus::kernel::AuthzDecision Authorize(const nexus::kernel::AuthzRequest& request) override {
    ScopedSpan span(kSpanEngineMiss);
    return inner_->Authorize(request);
  }
  std::vector<nexus::kernel::AuthzDecision> AuthorizeBatch(
      std::span<const nexus::kernel::AuthzRequest> requests) override {
    ScopedSpan span(kSpanEngineBatch, requests.size());
    return inner_->AuthorizeBatch(requests);
  }

 private:
  nexus::kernel::AuthorizationEngine* inner_;
};

// Interceptor: passed to Kernel::Interpose in place of the monitor.
class InterceptorTap : public nexus::kernel::Interceptor {
 public:
  InterceptorTap(nexus::kernel::Interceptor* inner, Layer layer) : inner_(inner), layer_(layer) {}
  nexus::kernel::InterposeVerdict OnCall(const nexus::kernel::IpcContext& context,
                                         nexus::kernel::IpcMessage& message) override {
    ScopedSpan span(layer_);
    return inner_->OnCall(context, message);
  }
  nexus::kernel::InterposeVerdict OnReply(const nexus::kernel::IpcContext& context,
                                          const nexus::kernel::IpcMessage& request,
                                          nexus::kernel::IpcReply& reply) override {
    ScopedSpan span(layer_);
    return inner_->OnReply(context, request, reply);
  }

 private:
  nexus::kernel::Interceptor* inner_;
  Layer layer_;
};

// Port handler: bound in place of the server's own handler.
class HandlerTap : public nexus::kernel::PortHandler {
 public:
  explicit HandlerTap(nexus::kernel::PortHandler* inner) : inner_(inner) {}
  nexus::kernel::IpcReply Handle(const nexus::kernel::IpcContext& context,
                                 const nexus::kernel::IpcMessage& message) override {
    ScopedSpan span(kSpanHandler);
    return inner_->Handle(context, message);
  }
  void HandleMany(const nexus::kernel::IpcContext& context,
                  std::span<const nexus::kernel::IpcMessage> messages,
                  std::span<nexus::kernel::IpcReply> replies) override {
    ScopedSpan span(kSpanHandler, messages.size());
    inner_->HandleMany(context, messages, replies);
  }

 private:
  nexus::kernel::PortHandler* inner_;
};

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
