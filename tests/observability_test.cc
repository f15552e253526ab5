// End-to-end observability tests: the flight recorder's provenance chain
// through a real interposed fileserver read, the guarded procfs export of
// the metrics plane, and the analyzer's trace-derived traffic view.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "core/nexus.h"
#include "kernel/trace.h"
#include "nal/parser.h"
#include "nal/prover.h"
#include "services/ipc_analyzer.h"
#include "tpm/tpm.h"

namespace nexus::core {
namespace {

nal::Formula F(const std::string& text) { return *nal::ParseFormula(text); }

// Enables the global recorder for one test body and restores silence (and
// an empty ring view) afterwards, so tests cannot leak events into each
// other.
class ScopedRecorder {
 public:
  ScopedRecorder() {
    kernel::FlightRecorder::Global().Clear();
    kernel::FlightRecorder::Global().set_enabled(true);
  }
  ~ScopedRecorder() {
    kernel::FlightRecorder::Global().set_enabled(false);
    kernel::FlightRecorder::Global().Clear();
  }
};

class AllowAllMonitor : public kernel::Interceptor {
 public:
  kernel::InterposeVerdict OnCall(const kernel::IpcContext&, kernel::IpcMessage&) override {
    ++calls;
    return kernel::InterposeVerdict::kAllow;
  }
  int calls = 0;
};

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : rng_(77), tpm_(rng_), nexus_(&tpm_) {
    owner_ = *nexus_.CreateProcess("owner", ToBytes("owner-bin"));
    client_ = *nexus_.CreateProcess("client", ToBytes("client-bin"));
  }

  kernel::IpcReply Syscall(kernel::ProcessId caller, kernel::Syscall sc,
                           std::vector<std::string> args) {
    return nexus_.kernel().Invoke(caller, sc,
                                  kernel::IpcMessage::FromLegacy("", std::move(args)));
  }

  Rng rng_;
  tpm::Tpm tpm_;
  Nexus nexus_;
  kernel::ProcessId owner_ = 0;
  kernel::ProcessId client_ = 0;
};

// The acceptance scenario: one interposed fileserver read yields a
// correlated provenance chain — Call -> syscall -> cache probe -> engine
// miss -> guard check -> verdict, all under one trace id — retrievable
// both programmatically (ForTrace) and through proc:/trace/recent.
TEST_F(ObservabilityTest, InterposedReadYieldsCorrelatedProvenanceChain) {
  kernel::Kernel& k = nexus_.kernel();
  ASSERT_TRUE(nexus_.fs().CreateFile("/data", ToBytes("payload")).ok());
  // Open while the file object is unguarded; the read below is the guarded
  // operation under test.
  kernel::IpcReply open = Syscall(client_, kernel::Syscall::kOpen, {"/data"});
  ASSERT_TRUE(open.status.ok()) << open.status.ToString();
  int64_t fd = open.value();

  // Guard the read behind a certifier attestation, with the client holding
  // a valid pre-submitted proof.
  std::string client_name = k.ProcessPrincipal(client_).ToString();
  nal::Formula goal = F("Certifier says safe(" + client_name + ")");
  ASSERT_TRUE(nexus_.engine().RegisterObject("file:/data", owner_, kernel::kKernelProcessId).ok());
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/data", goal).ok());
  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + client_name + ")"));
  auto creds = nexus_.engine().CollectCredentials(client_, "file:/data");
  Result<nal::Proof> proof = nal::AutoProve(goal, creds);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/data", *proof).ok());

  // Interpose a monitor on the filesystem port, then trace one read.
  AllowAllMonitor monitor;
  Result<uint64_t> token = k.Interpose(owner_, k.fs_port(), &monitor);
  ASSERT_TRUE(token.ok()) << token.status().ToString();

  ScopedRecorder recorder;
  kernel::IpcReply read = Syscall(client_, kernel::Syscall::kRead, {std::to_string(fd)});
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(ToString(read.data), "payload");
  EXPECT_EQ(monitor.calls, 1);

  std::vector<kernel::TraceEvent> recent = kernel::FlightRecorder::Global().Recent();
  ASSERT_FALSE(recent.empty());
  const uint64_t id = recent.front().trace_id;
  ASSERT_NE(id, 0u);
  // Every retained event belongs to the single traced call.
  for (const kernel::TraceEvent& e : recent) {
    EXPECT_EQ(e.trace_id, id);
  }

  std::vector<kernel::TraceEvent> chain = kernel::FlightRecorder::Global().ForTrace(id);
  auto count_stage = [&](kernel::TraceStage stage) {
    return std::count_if(chain.begin(), chain.end(),
                         [&](const kernel::TraceEvent& e) { return e.stage == stage; });
  };
  EXPECT_GE(count_stage(kernel::TraceStage::kSyscall), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kCall), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kCacheProbe), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kEngineMiss), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kGuardCheck), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kVerdict), 1);

  // The IPC hop into the fileserver records that a monitor was on path,
  // and the final verdict is an allow.
  auto call_event = std::find_if(chain.begin(), chain.end(), [](const kernel::TraceEvent& e) {
    return e.stage == kernel::TraceStage::kCall;
  });
  ASSERT_NE(call_event, chain.end());
  EXPECT_TRUE(call_event->flags & kernel::kTraceFlagInterposed);
  EXPECT_EQ(call_event->verdict, kernel::kTraceVerdictAllow);
  auto verdict_event = std::find_if(chain.begin(), chain.end(), [](const kernel::TraceEvent& e) {
    return e.stage == kernel::TraceStage::kVerdict;
  });
  ASSERT_NE(verdict_event, chain.end());
  EXPECT_EQ(verdict_event->verdict, kernel::kTraceVerdictAllow);
  EXPECT_TRUE(verdict_event->flags & kernel::kTraceFlagCacheMiss);

  // The same chain is visible through the introspection namespace.
  kernel::IpcReply trace_read =
      Syscall(client_, kernel::Syscall::kProcRead, {"/trace/recent"});
  ASSERT_TRUE(trace_read.status.ok()) << trace_read.status.ToString();
  EXPECT_NE(trace_read.text().find("trace=" + std::to_string(id)), std::string::npos);
  EXPECT_NE(trace_read.text().find("stage=guard_check"), std::string::npos);

  ASSERT_TRUE(k.RemoveInterposition(*token).ok());
}

// A repeat of the same traced call hits the decision cache: the chain
// shrinks to probe + verdict with the hit flag, no engine or guard stage.
TEST_F(ObservabilityTest, CachedRepeatTracesAsHit) {
  kernel::Kernel& k = nexus_.kernel();
  ASSERT_TRUE(k.Authorize(client_, "use", "widget:1").ok());  // Warm the cache.

  ScopedRecorder recorder;
  ASSERT_TRUE(k.Authorize(client_, "use", "widget:1").ok());
  std::vector<kernel::TraceEvent> recent = kernel::FlightRecorder::Global().Recent();
  ASSERT_FALSE(recent.empty());
  std::vector<kernel::TraceEvent> chain =
      kernel::FlightRecorder::Global().ForTrace(recent.front().trace_id);
  bool saw_hit = false;
  for (const kernel::TraceEvent& e : chain) {
    EXPECT_NE(e.stage, kernel::TraceStage::kEngineMiss);
    EXPECT_NE(e.stage, kernel::TraceStage::kGuardCheck);
    if (e.stage == kernel::TraceStage::kVerdict) {
      saw_hit = (e.flags & kernel::kTraceFlagCacheHit) != 0;
    }
  }
  EXPECT_TRUE(saw_hit);
}

// Allows everything and records each request the kernel hands it.
class RecordingEngine : public kernel::AuthorizationEngine {
 public:
  kernel::AuthzDecision Authorize(const kernel::AuthzRequest& request) override {
    seen.push_back(request);
    return kernel::AuthzDecision::Allow();
  }
  std::vector<kernel::AuthzRequest> seen;
};

// A traced AuthorizeBatch leaves the same per-request provenance a traced
// Authorize does: one probe and one verdict per item — for a cache hit, a
// miss, every member of a run of duplicates (which shares its head's
// generation window), and a request whose caller preset its trace id,
// which reaches the engine unchanged.
TEST(BatchProvenanceTest, TracedAuthorizeBatchEmitsPerItemProbeAndVerdict) {
  kernel::Kernel k;
  RecordingEngine engine;
  k.set_engine(&engine);
  const kernel::OpId use = kernel::InternOp("use");
  const kernel::AuthzRequest hit{1, use, kernel::InternObject("widget:hit")};
  const kernel::AuthzRequest miss{1, use, kernel::InternObject("widget:miss")};
  const kernel::AuthzRequest dup{2, use, kernel::InternObject("widget:dup")};
  const kernel::AuthzRequest preset{3, use, kernel::InternObject("widget:preset"), 0xfeed};
  ASSERT_TRUE(k.Authorize(hit).ok());  // Warm the cache.
  engine.seen.clear();

  ScopedRecorder recorder;
  std::vector<kernel::AuthzRequest> batch = {hit, miss, dup, dup, dup, preset};
  for (const Status& status : k.AuthorizeBatch(batch)) {
    EXPECT_TRUE(status.ok());
  }
  std::vector<kernel::TraceEvent> events = kernel::FlightRecorder::Global().Recent();
  auto of = [&](kernel::TraceStage stage, const kernel::AuthzRequest& r) {
    std::vector<kernel::TraceEvent> out;
    std::copy_if(events.begin(), events.end(), std::back_inserter(out),
                 [&](const kernel::TraceEvent& e) {
                   return e.stage == stage && e.subject == r.subject && e.op == r.op &&
                          e.obj == r.obj;
                 });
    return out;
  };
  const std::pair<kernel::AuthzRequest, size_t> expected[] = {
      {hit, 1}, {miss, 1}, {dup, 3}, {preset, 1}};
  for (const auto& [request, items] : expected) {
    ASSERT_EQ(of(kernel::TraceStage::kCacheProbe, request).size(), items) << request.obj;
    ASSERT_EQ(of(kernel::TraceStage::kVerdict, request).size(), items) << request.obj;
  }
  EXPECT_TRUE(of(kernel::TraceStage::kVerdict, hit)[0].flags & kernel::kTraceFlagCacheHit);
  std::vector<kernel::TraceEvent> dup_verdicts = of(kernel::TraceStage::kVerdict, dup);
  for (const kernel::TraceEvent& e : dup_verdicts) {
    EXPECT_TRUE(e.flags & kernel::kTraceFlagCacheMiss);
    EXPECT_EQ(e.verdict, kernel::kTraceVerdictAllow);
    EXPECT_EQ(e.generation, dup_verdicts[0].generation);
    EXPECT_GE(e.generation, of(kernel::TraceStage::kCacheProbe, dup)[0].generation);
  }

  // One engine upcall for the three run heads: the batch's own trace id on
  // the unstamped ones, the caller's on the preset one.
  ASSERT_EQ(engine.seen.size(), 3u);
  EXPECT_EQ(engine.seen[0].trace, dup_verdicts[0].trace_id);
  EXPECT_NE(engine.seen[0].trace, 0u);
  EXPECT_EQ(engine.seen[1].trace, dup_verdicts[0].trace_id);
  EXPECT_EQ(engine.seen[2].trace, 0xfeedu);
}

// The metrics plane is readable through the guarded proc-read syscall, and
// a goal formula on the stats node locks unauthorized subjects out.
TEST_F(ObservabilityTest, ProcStatsExportIsGuarded) {
  kernel::Kernel& k = nexus_.kernel();
  // Generate some kernel activity so the counters are visibly nonzero.
  ASSERT_TRUE(k.Authorize(client_, "use", "widget:2").ok());

  // Unguarded: anyone can read the export (bootstrap fail-open).
  kernel::IpcReply stats = Syscall(client_, kernel::Syscall::kProcRead, {"/stats/kernel"});
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_NE(stats.text().find("kernel.authorize_requests"), std::string::npos);
  kernel::IpcReply cache_stats = Syscall(client_, kernel::Syscall::kProcRead, {"/stats/cache"});
  ASSERT_TRUE(cache_stats.status.ok());
  EXPECT_NE(cache_stats.text().find("cache.misses"), std::string::npos);

  // Register the stats node and guard it behind an unprovable goal: the
  // client's next read is denied by the same authorization path as any
  // other object.
  ASSERT_TRUE(
      nexus_.engine().RegisterObject("proc:/stats/kernel", owner_, kernel::kKernelProcessId).ok());
  ASSERT_TRUE(nexus_.engine()
                  .SetGoal(owner_, "read", "proc:/stats/kernel", F("Auditor says cleared(nobody)"))
                  .ok());
  kernel::IpcReply denied = Syscall(client_, kernel::Syscall::kProcRead, {"/stats/kernel"});
  EXPECT_EQ(denied.status.code(), ErrorCode::kPermissionDenied);

  // Unrelated stats nodes stay readable.
  kernel::IpcReply still_ok = Syscall(client_, kernel::Syscall::kProcRead, {"/stats/engine"});
  EXPECT_TRUE(still_ok.status.ok());
}

// proc:/stats/trace reports the recorder's own state.
TEST_F(ObservabilityTest, TraceStatsNodeReportsRecorderState) {
  kernel::IpcReply off = Syscall(client_, kernel::Syscall::kProcRead, {"/stats/trace"});
  ASSERT_TRUE(off.status.ok());
  EXPECT_NE(off.text().find("enabled 0"), std::string::npos);

  ScopedRecorder recorder;
  kernel::IpcReply on = Syscall(client_, kernel::Syscall::kProcRead, {"/stats/trace"});
  ASSERT_TRUE(on.status.ok());
  EXPECT_NE(on.text().find("enabled 1"), std::string::npos);
}

// The analyzer's dynamic view: kCall events resolve to caller->callee
// edges, complementing the static channel graph.
TEST_F(ObservabilityTest, AnalyzerSeesObservedTraffic) {
  kernel::Kernel& k = nexus_.kernel();
  services::IpcAnalyzer analyzer(&k, &nexus_.engine(),
                                 *nexus_.CreateProcess("ipcanalyzer", ToBytes("a")));

  ASSERT_TRUE(nexus_.fs().CreateFile("/traffic", ToBytes("x")).ok());
  kernel::IpcReply open = Syscall(client_, kernel::Syscall::kOpen, {"/traffic"});
  ASSERT_TRUE(open.status.ok());

  kernel::ProcessId fs_pid = *k.PortOwner(k.fs_port());
  // Register the client's channel so the static reachability view also
  // knows about the edge the recorder is about to observe dynamically.
  ASSERT_TRUE(k.ConnectPort(client_, k.fs_port()).ok());
  ScopedRecorder recorder;
  EXPECT_EQ(analyzer.ObservedTraffic(client_, fs_pid), 0u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        Syscall(client_, kernel::Syscall::kRead, {std::to_string(open.value())}).status.ok());
  }
  EXPECT_EQ(analyzer.ObservedTraffic(client_, fs_pid), 3u);
  auto edges = analyzer.ObservedEdges();
  EXPECT_EQ((edges[{client_, fs_pid}]), 3u);
  // The static reachability view agrees that the observed edge is legal.
  EXPECT_TRUE(analyzer.HasPath(client_, fs_pid));
}

// Emission is free when the recorder is off: no events are retained and
// trace ids are never allocated.
TEST_F(ObservabilityTest, DisabledRecorderRetainsNothing) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  recorder.Clear();
  ASSERT_FALSE(recorder.enabled());
  ASSERT_TRUE(nexus_.kernel().Authorize(client_, "use", "widget:3").ok());
  EXPECT_TRUE(recorder.Recent().empty());
}

}  // namespace
}  // namespace nexus::core
