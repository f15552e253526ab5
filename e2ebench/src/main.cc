// End-to-end benchmark program for the Nexus reproduction.
//
//   e2ebench --workload <ipc_hot|policy_churn> --seed <n>
//            --seconds <s> --trace <0|1> [--spans-out <path>]
//   e2ebench --selftest
//
// A run boots Nexus through its public API, generates every caller's
// operation list from the seed, warms the caches, times a fixed amount of
// work from 4 closed-loop callers (nothing else runs beside them: the
// flight recorder, mutation log and auditor stay off), checks every
// outcome against the benchmark's own verdict model (model.h) and prints
// one JSON object as its last line. --trace 1 runs the same work with
// forwarding wrappers in the program's plug points and reports per-layer
// metrics instead of the end-to-end ones.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "harness/zipf.h"
#include "kernel/payload.h"
#include "kernel/syscall_ports.h"
#include "model.h"
#include "nal/interner.h"
#include "util/rng.h"
#include "world.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace kernel = nexus::kernel;
using nexus::Bytes;
using nexus::Result;
using nexus::Status;

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "call",    "callmany", "invoke_read", "invoke_write", "authorize",
      "setgoal", "setproof", "say",         "churn",        "intern",
      "handler", "ddrm",     "redactor",    "engine_miss",  "engine_batch"};
  return kNames[layer];
}

namespace {

constexpr size_t kSetupRepeats = 9;
// The timed phase is reported as the median of this many equal-work
// segments, so a stretch of the run in which the VM lost its CPUs moves
// one segment, not the result.
constexpr size_t kSegments = 16;

enum class Verb : uint8_t {
  kAuthorize,
  kCall,
  kCallMany,
  kRead,
  kWrite,
  kSetGoal,
  kProof,
  kSay,
  kChurn,
  kIntern,
};

// One submission. `object` is an object index (a file index for reads
// and writes); `subject` is a subject index (the chunk for writes, the
// speaker for say and intern).
struct Op {
  Verb verb = Verb::kAuthorize;
  uint16_t object = 0;
  uint32_t subject = 0;
};

bool IsWrite(Verb verb) { return verb == Verb::kSetGoal || verb == Verb::kProof; }

std::vector<Op> GenerateOps(const Spec& spec, uint64_t seed, size_t caller, size_t count,
                            bool reads_only) {
  nexus::Rng rng(seed * 0x9E3779B97F4A7C15ULL + (caller + 1) * 0x632BE59BD9B4E019ULL +
                 (reads_only ? 0xA5A5 : 0));
  nexus::harness::ZipfSampler subjects(spec.subjects, spec.subject_theta);
  const Mix& m = spec.mix;
  const uint32_t weights[] = {m.authorize, m.call, m.callmany, m.read, m.write,
                              reads_only ? 0 : m.setgoal, reads_only ? 0 : m.proof,
                              reads_only ? 0 : m.say, reads_only ? 0 : m.churn,
                              reads_only ? 0 : m.intern};
  uint64_t total = 0;
  for (uint32_t w : weights) {
    total += w;
  }
  const size_t owned = spec.objects / kCallers;  // Objects this caller writes.
  const size_t local = spec.objects - spec.quorum_objects;
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    uint64_t r = rng.NextBelow(total);
    size_t v = 0;
    while (r >= weights[v]) {
      r -= weights[v];
      ++v;
    }
    op.verb = static_cast<Verb>(v);
    switch (op.verb) {
      case Verb::kAuthorize:
        op.subject = static_cast<uint32_t>(subjects.Sample(rng));
        op.object = static_cast<uint16_t>(
            rng.NextBelow(10000) < spec.quorum_per_10k
                ? local + rng.NextBelow(spec.quorum_objects)
                : rng.NextBelow(local));
        break;
      case Verb::kCall:
      case Verb::kCallMany:
        op.subject = static_cast<uint32_t>(subjects.Sample(rng));
        op.object = static_cast<uint16_t>(rng.NextBelow(local));
        break;
      case Verb::kRead:
        op.object = static_cast<uint16_t>(rng.NextBelow(kFilesPerCaller));
        break;
      case Verb::kWrite:
        op.object = static_cast<uint16_t>(rng.NextBelow(kFilesPerCaller));
        op.subject = static_cast<uint32_t>(rng.NextBelow(kChunks));
        break;
      case Verb::kSetGoal:
        op.object = static_cast<uint16_t>(caller + kCallers * rng.NextBelow(owned));
        break;
      case Verb::kProof:
        op.object = static_cast<uint16_t>(caller + kCallers * rng.NextBelow(owned));
        op.subject = static_cast<uint32_t>(rng.NextBelow(spec.subjects));
        break;
      case Verb::kSay:
      case Verb::kIntern:
        op.subject =
            static_cast<uint32_t>(caller + kCallers * rng.NextBelow(spec.speakers / kCallers));
        break;
      case Verb::kChurn:
        break;
    }
  }
  return ops;
}

// ------------------------------------------------------------- callers
struct Caller {
  size_t index = 0;
  std::vector<Op> ops;     // One round.
  std::vector<Op> warmup;  // No control-plane writes.

  // Prebuilt inputs: the program receives only these.
  // Local objects twice over, so a batch starting at any of them is one span.
  std::vector<kernel::IpcMessage> service_msgs;
  std::vector<kernel::IpcMessage> read_msgs;     // Per file.
  std::vector<kernel::IpcMessage> write_msgs;    // Per file x chunk.
  std::vector<Bytes> chunks;
  std::vector<Bytes> content;  // The model's copy of each file.
  std::vector<std::string> say_texts;
  std::vector<std::string> intern_names;
  std::vector<std::string> churn_names;
  size_t say_next = 0;
  size_t intern_next = 0;
  size_t churn_next = 0;
  std::vector<kernel::IpcReply> replies = std::vector<kernel::IpcReply>(kBatch);
  std::vector<uint32_t> writes_done;  // Per object: writes this caller installed.
  std::vector<kernel::ObjectId> interned;

  // Results. The timed phase is cut into kSegments segments of equal work
  // (whole rounds); each has its own latency histogram, op count and span.
  std::vector<Histogram> seg_latency = std::vector<Histogram>(kSegments);
  std::vector<uint64_t> seg_ops = std::vector<uint64_t>(kSegments, 0);
  std::vector<uint64_t> seg_ns = std::vector<uint64_t>(kSegments, 0);
  Histogram* latency = &seg_latency[0];
  uint64_t ops_done = 0;
  uint64_t failed = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::string> failures;  // The first few, for the log.
  std::unique_ptr<ThreadTrace> trace;  // Traced runs only.
};

struct Runner {
  const Spec& spec;
  VerdictModel& model;  // Read-only during the run except for the write epochs.
  World& w;
  kernel::Kernel& k;
  nexus::core::Engine& engine;

  void Fail(Caller& c, const std::string& what) {
    ++c.failed;
    if (c.failures.size() < 5) {
      c.failures.push_back(what);
    }
  }

  // A verdict is right when the status is OK or PermissionDenied and the
  // model admits it; any other error is unexpected.
  bool VerdictOk(const Status& status, size_t s, size_t o, uint32_t e1, uint32_t e2) const {
    const bool got = status.ok();
    if (!got && status.code() != nexus::ErrorCode::kPermissionDenied) {
      return false;
    }
    return model.Admissible(s, o, e1, e2, got);
  }

  void Finish(Caller& c, uint64_t t0, uint64_t t1, uint64_t ops) {
    c.latency->Record(t1 - t0);
    c.ops_done += ops;
  }

  static void Open(Layer layer, uint64_t t) {
    if (tls_trace != nullptr) {
      tls_trace->Open(layer, t);
    }
  }
  static void Close(uint64_t t, uint64_t items = 1) {
    if (tls_trace != nullptr) {
      tls_trace->Close(t, items);
    }
  }

  void Execute(Caller& c, const Op& op) {
    const size_t s = op.subject;
    const size_t o = op.object;
    switch (op.verb) {
      case Verb::kAuthorize: {
        const uint32_t e1 = model.Epoch(o);
        const uint64_t t0 = NowNs();
        Open(kSpanAuthorize, t0);
        Status status = k.Authorize(kernel::AuthzRequest{w.subjects[s], w.read_op, w.objects[o]});
        const uint64_t t1 = NowNs();
        Close(t1);
        const uint32_t e2 = model.EpochAfter(o);
        Finish(c, t0, t1, 1);
        if (!VerdictOk(status, s, o, e1, e2)) {
          Fail(c, "authorize verdict " + status.ToString());
        }
        return;
      }
      case Verb::kCall: {
        const uint32_t e1 = model.Epoch(o);
        const uint64_t t0 = NowNs();
        Open(kSpanCall, t0);
        kernel::IpcReply reply = k.Call(w.subjects[s], w.service_port, c.service_msgs[o]);
        const uint64_t t1 = NowNs();
        Close(t1);
        const uint32_t e2 = model.EpochAfter(o);
        Finish(c, t0, t1, 1);
        if (!VerdictOk(reply.status, s, o, e1, e2)) {
          Fail(c, "call verdict " + reply.status.ToString());
        }
        return;
      }
      case Verb::kCallMany: {
        uint32_t e1[kBatch];
        const size_t local = spec.objects - spec.quorum_objects;
        for (size_t j = 0; j < kBatch; ++j) {
          e1[j] = model.Epoch((o + j) % local);
        }
        const uint64_t t0 = NowNs();
        Open(kSpanCallMany, t0);
        k.CallMany(w.subjects[s], w.service_port,
                   std::span<const kernel::IpcMessage>(&c.service_msgs[o], kBatch), c.replies);
        const uint64_t t1 = NowNs();
        Close(t1, kBatch);
        Finish(c, t0, t1, kBatch);
        for (size_t j = 0; j < kBatch; ++j) {
          const size_t oj = (o + j) % local;
          if (!VerdictOk(c.replies[j].status, s, oj, e1[j], model.EpochAfter(oj))) {
            Fail(c, "callmany verdict " + c.replies[j].status.ToString());
          }
        }
        return;
      }
      case Verb::kRead: {
        const uint64_t t0 = NowNs();
        Open(kSpanInvokeRead, t0);
        kernel::IpcReply reply =
            k.Invoke(w.clients[c.index].pid, kernel::Syscall::kRead, c.read_msgs[o]);
        const uint64_t t1 = NowNs();
        Close(t1);
        Finish(c, t0, t1, 1);
        if (!ReadMatches(reply, c.content[o])) {
          Fail(c, "read content " + reply.status.ToString());
        }
        return;
      }
      case Verb::kWrite: {
        const uint64_t t0 = NowNs();
        Open(kSpanInvokeWrite, t0);
        kernel::IpcReply reply = k.Invoke(w.clients[c.index].pid, kernel::Syscall::kWrite,
                                          c.write_msgs[o * kChunks + s]);
        const uint64_t t1 = NowNs();
        Close(t1);
        Finish(c, t0, t1, 1);
        Result<uint64_t> written = reply.ArgU64(0);
        if (!reply.status.ok() || !written.ok() || *written != kChunk) {
          Fail(c, "write " + reply.status.ToString());
        }
        std::copy(c.chunks[s].begin(), c.chunks[s].end(),
                  c.content[o].begin() + static_cast<ptrdiff_t>(ChunkOffset(s)));
        return;
      }
      case Verb::kSetGoal: {
        const uint32_t state = ++c.writes_done[o];
        const bool allow = model.GoalAllows(o, state);
        model.BeginWrite(o);
        const uint64_t t0 = NowNs();
        Open(kSpanSetGoal, t0);
        Status status = engine.SetGoal(w.service_pid, w.read_op, w.objects[o],
                                       allow ? w.PolicyOf(o).allow_goal : w.deny_goal);
        const uint64_t t1 = NowNs();
        Close(t1);
        model.EndWrite(o);
        Finish(c, t0, t1, 1);
        if (!status.ok()) {
          Fail(c, "setgoal " + status.ToString());
        }
        return;
      }
      case Verb::kProof: {
        const uint32_t state = ++c.writes_done[o];
        const bool held = model.ProofHeld(s, o, state);
        const kernel::AuthzRequest tuple{w.subjects[s], w.read_op, w.objects[o]};
        model.BeginWrite(o);
        const uint64_t t0 = NowNs();
        Open(kSpanSetProof, t0);
        Status status =
            held ? engine.SetProof(tuple, w.PolicyOf(o).proof) : engine.ClearProof(tuple);
        const uint64_t t1 = NowNs();
        Close(t1);
        model.EndWrite(o);
        Finish(c, t0, t1, 1);
        if (!status.ok()) {
          Fail(c, "setproof " + status.ToString());
        }
        return;
      }
      case Verb::kSay: {
        const std::string& text = c.say_texts[c.say_next++];
        const uint64_t t0 = NowNs();
        Open(kSpanSay, t0);
        Result<nexus::core::LabelHandle> handle = engine.Say(w.speakers[s], text);
        const uint64_t t1 = NowNs();
        Close(t1);
        Finish(c, t0, t1, 1);
        if (!handle.ok()) {
          Fail(c, "say " + handle.status().ToString());
        }
        return;
      }
      case Verb::kChurn: {
        const std::string& name = c.churn_names[c.churn_next++];
        const uint64_t t0 = NowNs();
        Open(kSpanChurn, t0);
        Result<kernel::ProcessId> pid = k.CreateProcess(name, nexus::ToBytes("churn"));
        Status killed = pid.ok() ? k.KillProcess(*pid) : pid.status();
        const uint64_t t1 = NowNs();
        Close(t1);
        Finish(c, t0, t1, 1);
        if (!killed.ok()) {
          Fail(c, "churn " + killed.ToString());
        }
        return;
      }
      case Verb::kIntern: {
        const std::string& name = c.intern_names[c.intern_next++];
        const uint64_t t0 = NowNs();
        Open(kSpanIntern, t0);
        Result<kernel::ObjectId> id = k.InternObjectCharged(w.speakers[s], name);
        const uint64_t t1 = NowNs();
        Close(t1);
        Finish(c, t0, t1, 1);
        if (!id.ok() || *id == 0) {
          Fail(c, "intern " + id.status().ToString());
        }
        c.interned.push_back(id.ok() ? *id : 0);
        return;
      }
    }
  }

  static size_t ChunkOffset(size_t chunk) { return (chunk % (kFileSize / kChunk)) * kChunk; }

  // The bytes a read returns must be the bytes the benchmark wrote, with
  // the monitor's redacted range masked.
  static bool ReadMatches(const kernel::IpcReply& reply, const Bytes& content) {
    if (!reply.status.ok() || reply.data.size() != content.size()) {
      return false;
    }
    const uint8_t* got = reply.data.data();
    if (std::memcmp(got, content.data(), kRedactBegin) != 0 ||
        std::memcmp(got + kRedactEnd, content.data() + kRedactEnd, content.size() - kRedactEnd) !=
            0) {
      return false;
    }
    for (uint64_t i = kRedactBegin; i < kRedactEnd; ++i) {
      if (got[i] != kRedactFill) {
        return false;
      }
    }
    Result<uint64_t> length = reply.ArgU64(0);
    return length.ok() && *length == content.size();
  }
};

// ------------------------------------------------------------ counters
struct Counters {
  kernel::DecisionCache::Stats cache;
  nexus::core::Guard::Stats guard;
  nexus::net::Transport::Stats net;
  nexus::net::mesh::QuorumAuthority::Stats quorum;
  uint64_t payload_copies = 0;
  uint64_t names = 0;
  uint64_t interner_nodes = 0;
};

Counters Snapshot(World& w) {
  Counters c;
  c.cache = w.nexus->kernel().decision_cache().stats();
  c.guard = w.nexus->guard().stats();
  if (w.transport != nullptr) {
    c.net = w.transport->stats();
    c.quorum = w.federation->session_quorum().stats();
  }
  c.payload_copies = kernel::IpcPayloadCopyCount();
  c.names = kernel::ObjectTable().size() + kernel::OpTable().size();
  c.interner_nodes = nexus::nal::Interner::Global().size();
  return c;
}

// One caller per CPU: a caller woken from a lock wait is not queued
// behind another caller on a shared CPU while a second CPU idles.
void PinToCpu(size_t index) {
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus == 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cpus, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) {
        return false;
      }
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--selftest") {
      opt->selftest = true;
    } else if (a == "--workload" && next(&v)) {
      opt->workload = v;
    } else if (a == "--seed" && next(&v)) {
      opt->seed = std::stoull(v);
    } else if (a == "--seconds" && next(&v)) {
      opt->seconds = std::stod(v);
    } else if (a == "--trace" && next(&v)) {
      opt->trace = v == "1";
    } else if (a == "--spans-out" && next(&v)) {
      opt->spans_out = v;
    } else {
      return false;
    }
  }
  return opt->selftest || (!opt->workload.empty() && opt->seconds > 0);
}

// Every subject lacks a proof for the same share of objects (a rotation,
// not a draw), so the share of denials does not depend on which subjects
// the seed makes popular.
void InitialProofs(const Spec& spec, VerdictModel* model) {
  for (size_t s = 0; s < spec.subjects; ++s) {
    for (size_t o = 0; o < spec.objects; ++o) {
      model->SetInitialProof(s, o, (o + s * 7) % spec.proofless_one_in != 0);
    }
  }
}

void PrepareCaller(const Spec& spec, const Options& opt,
                   const std::vector<Bytes>& file_contents, World& w, Caller& c, uint64_t rounds) {
  const size_t local = spec.objects - spec.quorum_objects;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t o = 0; o < local; ++o) {
      kernel::IpcMessage m = kernel::IpcMessage::Of(w.read_op);
      m.AddObject(w.objects[o]);
      c.service_msgs.push_back(std::move(m));
    }
  }
  c.writes_done.assign(spec.objects, 0);
  if (spec.files) {
    nexus::Rng rng(opt.seed * 31 + c.index + 7);
    for (size_t ch = 0; ch < kChunks; ++ch) {
      c.chunks.push_back(rng.RandomBytes(kChunk));
    }
    const FileClient& client = w.clients[c.index];
    for (size_t j = 0; j < kFilesPerCaller; ++j) {
      c.content.push_back(file_contents[c.index * kFilesPerCaller + j]);
      kernel::IpcMessage read = kernel::IpcMessage::Of("read");
      read.AddU64(client.fds[j]);
      c.read_msgs.push_back(std::move(read));
      for (size_t ch = 0; ch < kChunks; ++ch) {
        kernel::IpcMessage write = kernel::IpcMessage::Of("write");
        write.AddU64(client.fds[j]).AddU64(Runner::ChunkOffset(ch));
        write.data = nexus::kernel::Payload(c.chunks[ch]);
        c.write_msgs.push_back(std::move(write));
      }
    }
  }
  size_t says = 0;
  size_t interns = 0;
  size_t churns = 0;
  for (const Op& op : c.ops) {
    says += op.verb == Verb::kSay;
    interns += op.verb == Verb::kIntern;
    churns += op.verb == Verb::kChurn;
  }
  const std::string tag = std::to_string(opt.seed) + "x" + std::to_string(c.index) + "x";
  for (size_t i = 0; i < says * rounds; ++i) {
    c.say_texts.push_back("logged(e" + tag + std::to_string(i) + ")");
  }
  for (size_t i = 0; i < interns * rounds; ++i) {
    c.intern_names.push_back("bench:fresh:" + tag + std::to_string(i));
  }
  for (size_t i = 0; i < churns * rounds; ++i) {
    c.churn_names.push_back("bench_churn_" + tag + std::to_string(i));
  }
  c.interned.reserve(interns * rounds);
}

// The traced run's check of its own Call spans (see ThreadTrace::CheckCall).
struct SpanCheck {
  uint64_t calls = 0;
  uint64_t missing_taps = 0;
  double parts_p50_ns = 0;  // p50 of Call self time + p50 DDRM + p50 handler.
  double call_p50_ns = 0;

  double parts_ratio() const { return Ratio(parts_p50_ns, call_p50_ns); }
  // Calls must carry every tap's span, and the parts must add up to the
  // Call within 10%.
  bool ok() const {
    return calls > 0 && missing_taps == 0 && std::fabs(parts_ratio() - 1.0) <= 0.10;
  }
};

std::vector<Metric> LayerMetrics(const std::vector<std::unique_ptr<Caller>>& callers,
                                 const Counters& before, const Counters& after,
                                 uint64_t total_ops, SpanCheck* check) {
  std::vector<Histogram> per_item(kLayerCount);
  std::vector<Histogram> self(kLayerCount);
  std::vector<uint64_t> items(kLayerCount, 0);
  Histogram call_ddrm;
  Histogram call_handler;
  for (const auto& c : callers) {
    for (size_t l = 0; l < kLayerCount; ++l) {
      per_item[l].Merge(c->trace->per_item(static_cast<Layer>(l)));
      self[l].Merge(c->trace->self(static_cast<Layer>(l)));
      items[l] += c->trace->items(static_cast<Layer>(l));
    }
    check->calls += c->trace->calls_checked();
    check->missing_taps += c->trace->calls_missing_taps();
    call_ddrm.Merge(c->trace->call_ddrm());
    call_handler.Merge(c->trace->call_handler());
  }
  // The parts' medians are taken over separate distributions, so their sum
  // matches the Call median only when each part is measured where it runs.
  check->parts_p50_ns =
      self[kSpanCall].Quantile(0.5) + call_ddrm.Quantile(0.5) + call_handler.Quantile(0.5);
  check->call_p50_ns = per_item[kSpanCall].Quantile(0.5);
  auto p = [&](Layer l, double q) { return per_item[l].Quantile(q); };
  const double misses = static_cast<double>(items[kSpanEngineMiss] + items[kSpanEngineBatch]);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups = hits + static_cast<double>(after.cache.misses - before.cache.misses);
  const double invalidations =
      static_cast<double>((after.cache.invalidated_entries - before.cache.invalidated_entries) +
                          (after.cache.subregion_invalidations -
                           before.cache.subregion_invalidations));
  return {
      {"kernel.call_ns_p50", p(kSpanCall, 0.5), "ns"},
      {"kernel.call_self_ns_p50", self[kSpanCall].Quantile(0.5), "ns"},
      {"kernel.callmany_ns_per_msg_p50", p(kSpanCallMany, 0.5), "ns"},
      {"kernel.invoke_read_ns_p50", p(kSpanInvokeRead, 0.5), "ns"},
      {"kernel.invoke_write_ns_p50", p(kSpanInvokeWrite, 0.5), "ns"},
      {"kernel.payload_copies_per_read",
       Ratio(static_cast<double>(after.payload_copies - before.payload_copies),
             static_cast<double>(items[kSpanInvokeRead])),
       "copy/read"},
      {"kernel.authorize_ns_p50", p(kSpanAuthorize, 0.5), "ns"},
      {"kernel.authorize_ns_p99", p(kSpanAuthorize, 0.99), "ns"},
      {"kernel.cache_hit_ratio", Ratio(hits, lookups), "ratio"},
      {"kernel.cache_invalidations", invalidations, "count"},
      {"kernel.churn_ns_p50", p(kSpanChurn, 0.5), "ns"},
      {"kernel.name_table_added", static_cast<double>(after.names - before.names), "count"},
      {"services.ddrm_ns_p50", p(kSpanDdrm, 0.5), "ns"},
      {"services.redactor_ns_p50", p(kSpanRedactor, 0.5), "ns"},
      {"core.engine_misses_per_kop", Ratio(misses * 1000.0, static_cast<double>(total_ops)),
       "miss/kop"},
      {"core.engine_miss_ns_p50", p(kSpanEngineMiss, 0.5), "ns"},
      {"core.engine_miss_ns_p99", p(kSpanEngineMiss, 0.99), "ns"},
      {"core.engine_batch_ns_per_item", p(kSpanEngineBatch, 0.5), "ns"},
      {"core.setgoal_ns_p50", p(kSpanSetGoal, 0.5), "ns"},
      {"core.setproof_ns_p50", p(kSpanSetProof, 0.5), "ns"},
      {"core.say_ns_p50", p(kSpanSay, 0.5), "ns"},
      {"core.guard_proof_cache_hit_ratio",
       Ratio(static_cast<double>(after.guard.cache_hits - before.guard.cache_hits),
             static_cast<double>(after.guard.checks - before.guard.checks)),
       "ratio"},
      {"nal.interner_nodes_added",
       static_cast<double>(after.interner_nodes - before.interner_nodes), "count"},
      {"net.messages_per_miss",
       Ratio(static_cast<double>(after.net.sent - before.net.sent), misses), "msg/miss"},
      {"net.bytes_per_miss",
       Ratio(static_cast<double>(after.net.bytes_carried - before.net.bytes_carried), misses),
       "B/miss"},
      {"net.quorum_rounds_per_statement",
       Ratio(static_cast<double>(after.quorum.member_rounds - before.quorum.member_rounds),
             static_cast<double>(after.quorum.statements - before.quorum.statements)),
       "round/stmt"},
  };
}

void WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<std::unique_ptr<Caller>>& callers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "workload\tcaller\troot\tindex\tparent\tlayer\tstart_ns\tend_ns\n";
  for (const auto& c : callers) {
    const std::vector<SpanRecord>& spans = c->trace->samples();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& r = spans[i];
      out << workload << '\t' << c->index << '\t' << r.root << '\t' << i << '\t' << r.parent
          << '\t' << LayerName(r.layer) << '\t' << r.start << '\t' << r.end << '\n';
    }
  }
}

int RunWorkload(const Options& opt) {
  bool found = false;
  const Spec spec = SpecByName(opt.workload, &found);
  if (!found) {
    std::fprintf(stderr, "e2ebench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // Work is fixed by --seconds alone: whole rounds of each caller's list.
  const uint64_t rounds =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(spec.rounds_per_second * opt.seconds)));

  std::vector<std::unique_ptr<Caller>> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    auto c = std::make_unique<Caller>();
    c->index = t;
    c->ops = GenerateOps(spec, opt.seed, t, spec.round_ops, false);
    c->warmup = GenerateOps(spec, opt.seed, t, spec.warmup_ops, true);
    if (opt.trace) {
      c->trace = std::make_unique<ThreadTrace>();
    }
    callers.push_back(std::move(c));
  }
  VerdictModel model(spec.subjects, spec.objects);
  InitialProofs(spec, &model);
  for (uint64_t r = 0; r < rounds; ++r) {
    for (const auto& c : callers) {
      for (const Op& op : c->ops) {
        if (IsWrite(op.verb)) {
          model.AddWrite(op.object,
                            VerdictModel::Write{op.verb == Verb::kSetGoal, op.subject});
        }
      }
    }
  }
  std::vector<Bytes> file_contents;
  if (spec.files) {
    nexus::Rng rng(opt.seed * 17 + 3);
    for (size_t i = 0; i < kCallers * kFilesPerCaller; ++i) {
      file_contents.push_back(rng.RandomBytes(kFileSize));
    }
  }

  // Set-up: boot + scenario install, repeated; the last world is kept.
  std::vector<double> setups;
  std::unique_ptr<World> world;
  const size_t repeats = opt.trace ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    world.reset();
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<World>> built = BuildWorld(spec, model, file_contents, opt.trace);
    const uint64_t t1 = NowNs();
    if (!built.ok()) {
      std::fprintf(stderr, "e2ebench: set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
    setups.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  World& w = *world;
  kernel::FlightRecorder::Global().set_enabled(false);
  kernel::MutationLog::Global().set_enabled(false);
  for (auto& c : callers) {
    PrepareCaller(spec, opt, file_contents, w, *c, rounds);
  }
  Runner runner{spec, model, w, w.nexus->kernel(), w.nexus->engine()};

  // Warm-up, part 1: every (subject, object) pair once, so the resident
  // population is in the decision cache before the first timed call.
  uint64_t warm_failed = 0;
  if (spec.sweep) {
    for (size_t s = 0; s < spec.subjects; ++s) {
      for (size_t o = 0; o < spec.objects; ++o) {
        Status st = runner.k.Authorize(kernel::AuthzRequest{w.subjects[s], w.read_op, w.objects[o]});
        warm_failed += !runner.VerdictOk(st, s, o, 0, 0);
      }
    }
  }

  std::barrier sync(static_cast<std::ptrdiff_t>(kCallers + 1));
  std::vector<std::thread> threads;
  for (auto& cp : callers) {
    Caller* c = cp.get();
    threads.emplace_back([&runner, &sync, c, rounds] {
      PinToCpu(c->index);
      // Warm-up, part 2: the callers' own read mix, concurrently.
      for (const Op& op : c->warmup) {
        runner.Execute(*c, op);
      }
      sync.arrive_and_wait();  // Warm-up done.
      sync.arrive_and_wait();  // Counters snapshotted.
      c->seg_latency[0].Reset();
      c->ops_done = 0;
      c->failed = 0;
      tls_trace = c->trace.get();
      c->start_ns = NowNs();
      uint64_t seg_start = c->start_ns;
      uint64_t seg_ops_before = 0;
      for (uint64_t r = 0; r < rounds; ++r) {
        const size_t seg = static_cast<size_t>(r * kSegments / rounds);
        c->latency = &c->seg_latency[seg];
        for (const Op& op : c->ops) {
          runner.Execute(*c, op);
        }
        if (r + 1 == rounds || (r + 1) * kSegments / rounds != seg) {
          const uint64_t now = NowNs();
          c->seg_ns[seg] = now - seg_start;
          c->seg_ops[seg] = c->ops_done - seg_ops_before;
          seg_start = now;
          seg_ops_before = c->ops_done;
        }
      }
      c->end_ns = NowNs();
      tls_trace = nullptr;
    });
  }
  sync.arrive_and_wait();
  for (const auto& c : callers) {
    warm_failed += c->failed;
  }
  const Counters before = Snapshot(w);
  sync.arrive_and_wait();
  for (std::thread& t : threads) {
    t.join();
  }
  const Counters after = Snapshot(w);

  // Outcomes and end state.
  uint64_t total_ops = 0;
  uint64_t failed = 0;
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  // Per segment: the callers' rates add up; quantiles over all callers.
  Histogram latency;
  std::vector<double> seg_throughput;
  std::vector<double> seg_p50;
  std::vector<double> seg_p99;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    if (callers[0]->seg_ns[seg] == 0) {
      continue;  // Fewer rounds than segments: this one holds none.
    }
    Histogram merged;
    double rate = 0;
    for (const auto& c : callers) {
      merged.Merge(c->seg_latency[seg]);
      rate += static_cast<double>(c->seg_ops[seg]) / (static_cast<double>(c->seg_ns[seg]) / 1e9);
    }
    latency.Merge(merged);
    seg_throughput.push_back(rate);
    seg_p50.push_back(merged.Quantile(0.50));
    seg_p99.push_back(merged.Quantile(0.99));
  }
  for (const auto& c : callers) {
    total_ops += c->ops_done;
    failed += c->failed;
    start = std::min(start, c->start_ns);
    end = std::max(end, c->end_ns);
    for (const std::string& f : c->failures) {
      std::fprintf(stderr, "e2ebench: caller %zu failed: %s\n", c->index, f.c_str());
    }
  }
  // A wrong outcome in the timed phase makes the run incorrect too: no
  // operation of these workloads is expected to fail.
  bool correct = warm_failed == 0 && failed == 0;
  if (warm_failed != 0) {
    std::fprintf(stderr, "e2ebench: %llu warm-up outcomes disagree with the model\n",
                 static_cast<unsigned long long>(warm_failed));
  }
  // End state: each object's installed goal is the model's last state,
  // each file holds what the benchmark wrote, each interned name resolves.
  for (size_t o = 0; o < spec.objects; ++o) {
    std::optional<nexus::core::GoalEntry> goal =
        w.nexus->engine().goals().Get(w.read_op, w.objects[o]);
    const bool allow = model.GoalAllows(o, model.States(o) - 1);
    if (!goal.has_value() ||
        goal->goal_id != (allow ? w.PolicyOf(o).allow_goal_id : w.deny_goal_id)) {
      std::fprintf(stderr, "e2ebench: object %zu ends on the wrong goal\n", o);
      correct = false;
    }
  }
  for (const auto& c : callers) {
    for (size_t j = 0; spec.files && j < kFilesPerCaller; ++j) {
      Result<Bytes> bytes = w.nexus->fs().ReadFile(w.clients[c->index].paths[j]);
      if (!bytes.ok() || *bytes != c->content[j]) {
        std::fprintf(stderr, "e2ebench: file %zu/%zu ends with the wrong content\n", c->index, j);
        correct = false;
      }
    }
    for (size_t i = 0; i < c->interned.size(); ++i) {
      if (kernel::ObjectName(c->interned[i]) != c->intern_names[i]) {
        std::fprintf(stderr, "e2ebench: interned name %zu does not resolve\n", i);
        correct = false;
      }
    }
  }

  const double wall_s = static_cast<double>(end - start) / 1e9;
  const double throughput = Median(seg_throughput);
  const uint64_t cache_misses = after.cache.misses - before.cache.misses;
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"callers\": %zu, \"rounds\": %llu, \"ops\": %llu, \"latency_samples\": %llu, "
      "\"wall_s\": %s, \"throughput_ops_s\": %s, \"timed_cache_misses\": %llu, "
      "\"setup_samples_s\": [",
      spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
      std::thread::hardware_concurrency(), E2EBENCH_BUILD_TYPE, kCallers,
      static_cast<unsigned long long>(rounds), static_cast<unsigned long long>(total_ops),
      static_cast<unsigned long long>(latency.count()), Num(wall_s).c_str(),
      Num(throughput).c_str(), static_cast<unsigned long long>(cache_misses));
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", Num(setups[i]).c_str());
  }
  std::printf("], \"segment_ops_s\": [");
  for (size_t i = 0; i < seg_throughput.size(); ++i) {
    std::printf("%s%.0f", i == 0 ? "" : ", ", seg_throughput[i]);
  }
  std::printf("], \"segment_p99_us\": [");
  for (size_t i = 0; i < seg_p99.size(); ++i) {
    std::printf("%s%.1f", i == 0 ? "" : ", ", seg_p99[i] / 1000.0);
  }
  if (w.transport != nullptr) {
    const auto& q0 = before.quorum;
    const auto& q1 = after.quorum;
    std::printf("], \"quorum\": {\"statements\": %llu, \"vouched\": %llu, "
                "\"denied_no_quorum\": %llu, \"denied_timeout\": %llu, "
                "\"members_skipped\": %llu",
                static_cast<unsigned long long>(q1.statements - q0.statements),
                static_cast<unsigned long long>(q1.vouched - q0.vouched),
                static_cast<unsigned long long>(q1.denied_no_quorum - q0.denied_no_quorum),
                static_cast<unsigned long long>(q1.denied_timeout - q0.denied_timeout),
                static_cast<unsigned long long>(q1.members_skipped - q0.members_skipped));
    std::printf("}, \"latency_us\": {");
  } else {
    std::printf("], \"latency_us\": {");
  }
  const double qs[] = {0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 0.99, 0.999};
  for (size_t i = 0; i < std::size(qs); ++i) {
    std::printf("%s\"p%g\": %s", i == 0 ? "" : ", ", qs[i] * 100,
                Num(latency.Quantile(qs[i]) / 1000.0).c_str());
  }
  std::printf("}}}\n");

  std::vector<Metric> metrics;
  if (opt.trace) {
    SpanCheck check;
    metrics = LayerMetrics(callers, before, after, total_ops, &check);
    std::printf("{\"trace\": {\"calls_checked\": %llu, \"calls_missing_taps\": %llu, "
                "\"call_p50_ns\": %s, \"call_parts_p50_ns\": %s}}\n",
                static_cast<unsigned long long>(check.calls),
                static_cast<unsigned long long>(check.missing_taps),
                Num(check.call_p50_ns).c_str(), Num(check.parts_p50_ns).c_str());
    // Sanity property of the tracer, on the workload that makes Calls.
    if (spec.name == "ipc_hot" && !check.ok()) {
      std::fprintf(stderr, "e2ebench: call span check failed (%llu of %llu Calls missing a "
                   "tap's span; parts/call p50 %.3f)\n",
                   static_cast<unsigned long long>(check.missing_taps),
                   static_cast<unsigned long long>(check.calls), check.parts_ratio());
      correct = false;
    }
    if (!opt.spans_out.empty()) {
      WriteSpans(opt.spans_out, spec.name, callers);
    }
  } else {
    metrics = {
        {"throughput_ops_s", throughput, "1/s"},
        {"latency_p50_us", Median(seg_p50) / 1000.0, "us"},
        {"latency_p99_us", Median(seg_p99) / 1000.0, "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setups), "s"},
    };
  }
  PrintResult(correct, total_ops, failed, metrics);
  return correct ? 0 : 1;
}

// The checker must count a wrong verdict, a corrupted read and a missing
// redaction as failed operations. Each case runs the real system path and
// feeds the outcome through the same checks the workloads use.
int SelfTest() {
  bool found = false;
  const Spec spec = SpecByName("ipc_hot", &found);
  const uint64_t seed = 7;
  VerdictModel model(spec.subjects, spec.objects);
  InitialProofs(spec, &model);
  std::vector<Bytes> contents;
  nexus::Rng rng(seed);
  for (size_t i = 0; i < kCallers * kFilesPerCaller; ++i) {
    contents.push_back(rng.RandomBytes(kFileSize));
  }
  Result<std::unique_ptr<World>> built = BuildWorld(spec, model, contents, /*trace=*/true);
  if (!built.ok()) {
    std::fprintf(stderr, "selftest: set-up failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  World& w = **built;
  Runner runner{spec, model, w, w.nexus->kernel(), w.nexus->engine()};
  Options opt;
  opt.seed = seed;
  Caller c;
  c.index = 0;
  PrepareCaller(spec, opt, contents, w, c, 1);
  int bad = 0;
  auto expect = [&bad](const char* what, bool ok) {
    std::printf("selftest: %-52s %s\n", what, ok ? "ok" : "FAILED");
    bad += !ok;
  };

  // A right verdict passes; the same verdict flipped is a failure.
  const size_t s = 0;
  const size_t o = 1;
  Status st = runner.k.Authorize(kernel::AuthzRequest{w.subjects[s], w.read_op, w.objects[o]});
  expect("true verdict accepted", runner.VerdictOk(st, s, o, 0, 0));
  Status flipped = st.ok() ? nexus::PermissionDenied("flipped") : nexus::OkStatus();
  expect("flipped verdict counted as failed", !runner.VerdictOk(flipped, s, o, 0, 0));
  expect("unexpected error counted as failed",
         !runner.VerdictOk(nexus::Unavailable("injected"), s, o, 0, 0));

  // A redacted read passes; one corrupted byte outside the range fails.
  kernel::IpcReply reply = runner.k.Invoke(w.clients[0].pid, kernel::Syscall::kRead, c.read_msgs[0]);
  expect("redacted read accepted", Runner::ReadMatches(reply, c.content[0]));
  Bytes corrupted(reply.data.begin(), reply.data.end());
  corrupted[10] ^= 0x5A;
  kernel::IpcReply bad_reply = reply;
  bad_reply.data = kernel::Payload::Copy(corrupted);
  expect("corrupted read counted as failed", !Runner::ReadMatches(bad_reply, c.content[0]));

  // With the monitor removed, the same read returns the raw bytes.
  Status removed = runner.k.RemoveInterposition(w.redactor_token);
  kernel::IpcReply raw = runner.k.Invoke(w.clients[0].pid, kernel::Syscall::kRead, c.read_msgs[0]);
  expect("missing redaction counted as failed",
         removed.ok() && raw.status.ok() && !Runner::ReadMatches(raw, c.content[0]));

  // The same checks through the runner's tally: three injected faults,
  // three failed operations.
  c.failed = 0;
  if (!runner.VerdictOk(flipped, s, o, 0, 0)) {
    runner.Fail(c, "flipped verdict");
  }
  if (!Runner::ReadMatches(bad_reply, c.content[0])) {
    runner.Fail(c, "corrupted read");
  }
  if (!Runner::ReadMatches(raw, c.content[0])) {
    runner.Fail(c, "missing redaction");
  }
  expect("three faults tallied as three failures", c.failed == 3);

  // The traced run's span check: a Call through the world's forwarding
  // wrappers carries the DDRM and handler spans; the same Call through a
  // world built without the wrappers is flagged.
  const Op call{Verb::kCall, static_cast<uint16_t>(o), static_cast<uint32_t>(s)};
  ThreadTrace tapped;
  tls_trace = &tapped;
  runner.Execute(c, call);
  tls_trace = nullptr;
  expect("call with every tap passes the span check",
         tapped.calls_checked() == 1 && tapped.calls_missing_taps() == 0);
  built->reset();
  Result<std::unique_ptr<World>> bare = BuildWorld(spec, model, contents, /*trace=*/false);
  if (!bare.ok()) {
    std::fprintf(stderr, "selftest: set-up failed: %s\n", bare.status().ToString().c_str());
    return 1;
  }
  World& bw = **bare;
  Runner bare_runner{spec, model, bw, bw.nexus->kernel(), bw.nexus->engine()};
  Caller bc;
  bc.index = 0;
  PrepareCaller(spec, opt, contents, bw, bc, 1);
  ThreadTrace untapped;
  tls_trace = &untapped;
  bare_runner.Execute(bc, call);
  tls_trace = nullptr;
  expect("call without the taps fails the span check",
         untapped.calls_checked() == 1 && untapped.calls_missing_taps() == 1);
  std::printf("{\"selftest\": %s}\n", bad == 0 ? "true" : "false");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  if (!e2e::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>] | --selftest\n");
    return 2;
  }
  return opt.selftest ? e2e::SelfTest() : e2e::RunWorkload(opt);
}
