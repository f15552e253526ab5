// Multi-threaded authorization frontend stress tests.
//
// The contract under test (README "Threading model"): worker threads may
// call Kernel::Authorize / AuthorizeBatch concurrently with each other AND
// with control-plane mutations (SetGoal / SetProof, which invalidate the
// sharded decision cache), while the intern tables take concurrent
// interning from every side. These tests are the ThreadSanitizer targets
// wired into CI; they also assert end-state consistency so a lost
// invalidation (a stale cached verdict surviving a goal flip) fails even
// without TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/nexus.h"
#include "kernel/payload.h"
#include "kernel/trace.h"
#include "nal/interner.h"
#include "nal/parser.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "services/ddrm.h"

namespace nexus::core {
namespace {

nal::Formula F(std::string_view text) {
  Result<nal::Formula> f = nal::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << " -> " << f.status().ToString();
  return f.ok() ? *f : nullptr;
}

TEST(MtAuthzStressTest, ConcurrentAuthorizeVsSetGoalInvalidations) {
  Rng rng(7);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();
  Engine& engine = nexus.engine();

  constexpr int kWorkers = 4;
  constexpr int kObjects = 8;
  constexpr int kItersPerWorker = 1500;
  constexpr int kGoalFlips = 400;

  kernel::ProcessId owner = *nexus.CreateProcess("owner", ToBytes("o"));
  // The provable goal (credential seeded below) and the unprovable one the
  // mutator flips to; a premise proof for `provable` never discharges it.
  nal::Formula provable = F("Certifier says ok(app)");
  nal::Formula unprovable = F("Certifier says nope(app)");
  engine.SayAs(nal::Principal("Certifier"), F("ok(app)"));

  // One subject per worker: subjects hash to their own decision-cache
  // shards, so the hit path runs genuinely in parallel.
  std::vector<kernel::ProcessId> subjects;
  std::vector<std::vector<kernel::AuthzRequest>> requests(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    subjects.push_back(*nexus.CreateProcess("w" + std::to_string(t), ToBytes("w")));
  }
  for (int o = 0; o < kObjects; ++o) {
    std::string object = "obj" + std::to_string(o);
    ASSERT_TRUE(engine.RegisterObject(object, owner, kernel::kKernelProcessId).ok());
    ASSERT_TRUE(engine.SetGoal(owner, "use", object, provable).ok());
    for (int t = 0; t < kWorkers; ++t) {
      ASSERT_TRUE(
          engine.SetProof(subjects[t], "use", object, nal::proof::Premise(provable)).ok());
      requests[t].push_back(kernel::AuthzRequest::Of(subjects[t], "use", object));
    }
  }

  std::atomic<uint64_t> allows{0};
  std::atomic<uint64_t> denies{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerWorker; ++i) {
        const kernel::AuthzRequest& request = requests[t][i % kObjects];
        Status status = kernel.Authorize(request);
        if (status.ok()) {
          ++allows;
        } else if (status.code() == ErrorCode::kPermissionDenied) {
          ++denies;  // Caught a goal-flip window: expected.
        } else {
          ++unexpected;
        }
      }
    });
  }
  // The mutator races setgoal invalidations (and the odd setproof, which
  // bumps state versions) against the workers' lookups.
  threads.emplace_back([&] {
    for (int i = 0; i < kGoalFlips; ++i) {
      std::string object = "obj" + std::to_string(i % kObjects);
      const nal::Formula& goal = (i % 2 == 0) ? unprovable : provable;
      EXPECT_TRUE(engine.SetGoal(owner, "use", object, goal).ok());
      if (i % 16 == 0) {
        EXPECT_TRUE(engine
                        .SetProof(subjects[i % kWorkers], "use", object,
                                  nal::proof::Premise(provable))
                        .ok());
      }
    }
    // Leave every goal provable for the post-quiescence check.
    for (int o = 0; o < kObjects; ++o) {
      EXPECT_TRUE(engine.SetGoal(owner, "use", "obj" + std::to_string(o), provable).ok());
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(allows.load(), 0u);
  // Post-quiescence: every goal is provable again, so every request must
  // authorize. A stale deny cached past its invalidation fails here.
  for (int t = 0; t < kWorkers; ++t) {
    for (const kernel::AuthzRequest& request : requests[t]) {
      Status status = kernel.Authorize(request);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
  // Batch frontend under the same churned state.
  for (int t = 0; t < kWorkers; ++t) {
    for (const Status& status : kernel.AuthorizeBatch(requests[t])) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

TEST(MtAuthzStressTest, ConcurrentInterningConvergesToOneIdPerFormula) {
  nal::Interner interner;
  constexpr int kWorkers = 4;
  constexpr int kFormulas = 64;
  // Each worker parses its own copies (distinct trees, distinct
  // addresses) of the same formula set and interns them repeatedly.
  std::vector<std::vector<nal::FormulaId>> ids(kWorkers,
                                               std::vector<nal::FormulaId>(kFormulas));
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFormulas; ++i) {
        nal::Formula f = F("P" + std::to_string(i % 7) + " says fact" + std::to_string(i) +
                           "(x" + std::to_string(t % 2) + ")");
        ids[t][i] = interner.Intern(f);
        // Re-interning the canonical node must be stable.
        EXPECT_EQ(interner.Intern(interner.Resolve(ids[t][i])), ids[t][i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int i = 0; i < kFormulas; ++i) {
    for (int t = 1; t < kWorkers; ++t) {
      // Workers 0 and 1 built different argument symbols (x0 vs x1); ids
      // must agree exactly between workers of the same parity and differ
      // across parities.
      if (t % 2 == 0) {
        EXPECT_EQ(ids[t][i], ids[0][i]) << i;
      } else {
        EXPECT_EQ(ids[t][i], ids[1][i]) << i;
        EXPECT_NE(ids[t][i], ids[0][i]) << i;
      }
    }
  }
}

TEST(MtAuthzStressTest, ConcurrentNameTableInternAndResolve) {
  kernel::NameTable table;
  constexpr int kWorkers = 4;
  constexpr int kNames = 200;
  std::vector<std::vector<uint32_t>> ids(kWorkers, std::vector<uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        std::string name = "file:/shared/" + std::to_string(i);
        ids[t][i] = table.Intern(name);
        // Reads race other workers' inserts; the returned view must be the
        // interned name, stable without any lock held.
        EXPECT_EQ(table.Name(ids[t][i]), name);
        EXPECT_EQ(table.Find(name), ids[t][i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kWorkers; ++t) {
    EXPECT_EQ(ids[t], ids[0]);  // One id per name, process-wide.
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kNames) + 1);  // + reserved "".
}

TEST(MtAuthzStressTest, DecisionCacheShardsSurviveConcurrentChurn) {
  kernel::DecisionCache cache;
  constexpr int kWorkers = 4;
  constexpr int kIters = 4000;
  kernel::OpId op = kernel::InternOp("use");
  std::vector<kernel::ObjectId> objects;
  for (int o = 0; o < 8; ++o) {
    objects.push_back(kernel::InternObject("churn" + std::to_string(o)));
  }
  std::atomic<uint64_t> wrong_verdicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      kernel::ProcessId subject = 1000 + t;
      for (int i = 0; i < kIters; ++i) {
        kernel::AuthzRequest request{subject, op, objects[i % objects.size()]};
        // Each worker only ever inserts ALLOW for its own subject, so any
        // deny read back would be corruption across shards/subjects.
        uint64_t generation = cache.Generation(request);
        cache.InsertIfUnchanged(request, true, generation);
        std::optional<bool> cached = cache.Lookup(request);
        if (cached.has_value() && !*cached) {
          ++wrong_verdicts;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIters / 4; ++i) {
      cache.InvalidateSubregion(op, objects[i % objects.size()]);
      if (i % 64 == 0) {
        cache.Clear();
      }
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong_verdicts.load(), 0u);
  kernel::DecisionCache::Stats stats = cache.stats();
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.subregion_invalidations, 0u);
}

// THE parallel-miss-path acceptance test: two subjects whose authorization
// misses each require a remote-authority round trip run on two OS threads,
// and the simulated clock proves the round trips OVERLAPPED — both misses
// together cost one RTT, not two. Under the PR-3 engine monitor the second
// miss could not enter the engine until the first's round trip returned,
// so this completed in 2 RTTs by construction.
TEST(MtAuthzStressTest, TwoSubjectRemoteMissesOverlapInOneRtt) {
  Rng rng_a(11), rng_b(22);
  tpm::Tpm tpm_a(rng_a), tpm_b(rng_b);
  Nexus nexus_a(&tpm_a, NexusOptions{.seed = 1});
  Nexus nexus_b(&tpm_b, NexusOptions{.seed = 2});
  nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());
  nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());
  net::Transport transport(7);
  constexpr uint64_t kLatencyUs = 100;
  transport.SetLink("a", "b", net::LinkConfig{.latency_us = kLatencyUs, .drop_rate = 0.0});
  net::NetNode node_a(&nexus_a, &transport, "a");
  net::NetNode node_b(&nexus_b, &transport, "b");

  net::AuthorityService service(&node_b);
  LambdaAuthority session(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
      },
      [](const nal::Formula&) { return true; });
  service.AddAuthority(&session);
  net::RemoteAuthority remote(&node_a, "b", nullptr, /*default_timeout_us=*/1000000);
  nexus_a.guard().AddRemoteAuthority(&remote);
  nexus_a.guard().set_remote_query_timeout_us(1000000);

  kernel::ProcessId owner = *nexus_a.CreateProcess("owner", ToBytes("o"));
  // Two subjects on provably DISTINCT engine stripes (otherwise the
  // per-subject serialization — correct behavior — would mask the overlap
  // this test exists to observe).
  kernel::ProcessId s1 = *nexus_a.CreateProcess("s1", ToBytes("w"));
  kernel::ProcessId s2 = *nexus_a.CreateProcess("s2", ToBytes("w"));
  while (Engine::StripeOf(s2) == Engine::StripeOf(s1)) {
    s2 = *nexus_a.CreateProcess("s2", ToBytes("w"));
  }

  auto arm = [&](kernel::ProcessId subject, const std::string& object,
                 const std::string& user) {
    nal::Formula statement = F("Session says active(" + user + ")");
    EXPECT_TRUE(
        nexus_a.engine().RegisterObject(object, owner, kernel::kKernelProcessId).ok());
    EXPECT_TRUE(nexus_a.engine().SetGoal(owner, "use", object, statement).ok());
    EXPECT_TRUE(
        nexus_a.engine().SetProof(subject, "use", object, nal::proof::Authority(statement))
            .ok());
    return kernel::AuthzRequest::Of(subject, "use", object);
  };
  kernel::AuthzRequest warmup = arm(s1, "warmup", "warm");
  kernel::AuthzRequest r1 = arm(s1, "objA", "alice");
  kernel::AuthzRequest r2 = arm(s2, "objB", "bob");

  // Warm-up: establishes the attested channel (handshake + one vouch round
  // trip) single-threaded, so the concurrent phase below is pure data-plane.
  ASSERT_TRUE(nexus_a.kernel().Authorize(warmup).ok());
  uint64_t t0 = transport.now_us();

  // Rendezvous: no delivery (and no clock movement) until BOTH misses have
  // their VouchBatch request on the wire.
  transport.ArmPumpGate(2);
  Status st1, st2;
  std::thread w1([&] { st1 = nexus_a.kernel().Authorize(r1); });
  std::thread w2([&] { st2 = nexus_a.kernel().Authorize(r2); });
  w1.join();
  w2.join();

  EXPECT_TRUE(st1.ok()) << st1.ToString();
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  // Both requests left at t0, both replies landed at t0 + 2*latency: ONE
  // round trip of wall-clock for two misses. The serial engine paid
  // t0 + 4*latency here.
  EXPECT_EQ(transport.now_us(), t0 + 2 * kLatencyUs);
  // And both misses really did consult the remote authority.
  EXPECT_EQ(remote.stats().queries, 3u);  // warmup + r1 + r2
}

// Authorization misses racing process/port lifecycle churn: the kernel's
// sharded process/port tables let spawn, kill, and port create/destroy run
// while worker threads miss (the PR-3 quiescence rule is gone). Workers
// also exercise Invoke(kProcRead) — procfs reads and the charged intern
// surface — mid-churn. TSan-clean is the real assertion; the end-state
// checks catch lost updates without it.
TEST(MtAuthzStressTest, AuthorizeMissesVsProcessAndPortLifecycleChurn) {
  Rng rng(13);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();
  Engine& engine = nexus.engine();
  // Every Authorize below is a full engine miss: the point is the miss
  // path vs the tables, not cache hits.
  kernel.set_decision_cache_enabled(false);

  constexpr int kWorkers = 3;
  constexpr int kItersPerWorker = 400;
  constexpr int kChurnIters = 250;

  kernel::ProcessId owner = *nexus.CreateProcess("owner", ToBytes("o"));
  nal::Formula goal = F("Certifier says ok(app)");
  engine.SayAs(nal::Principal("Certifier"), F("ok(app)"));

  std::vector<kernel::ProcessId> subjects;
  std::vector<std::vector<kernel::AuthzRequest>> requests(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    subjects.push_back(*nexus.CreateProcess("w" + std::to_string(t), ToBytes("w")));
    for (int o = 0; o < 4; ++o) {
      std::string object = "churn-obj" + std::to_string(t) + "-" + std::to_string(o);
      ASSERT_TRUE(engine.RegisterObject(object, owner, kernel::kKernelProcessId).ok());
      ASSERT_TRUE(engine.SetGoal(owner, "use", object, goal).ok());
      ASSERT_TRUE(
          engine.SetProof(subjects[t], "use", object, nal::proof::Premise(goal)).ok());
      requests[t].push_back(kernel::AuthzRequest::Of(subjects[t], "use", object));
    }
  }

  uint64_t generation_before = kernel.lifecycle_generation();
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> proc_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerWorker; ++i) {
        Status status = kernel.Authorize(requests[t][i % requests[t].size()]);
        if (!status.ok()) {
          ++failures;
        }
        if (i % 16 == 0) {
          // A syscall through the interposition+procfs surface, mid-churn.
          kernel::IpcMessage msg;
          msg.AddString("/proc/kernel/name");
          kernel::IpcReply reply =
              kernel.Invoke(subjects[t], kernel::Syscall::kProcRead, msg);
          if (reply.status.ok()) {
            ++proc_reads;
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t last_port_generation = 0;
    for (int i = 0; i < kChurnIters; ++i) {
      Result<kernel::ProcessId> pid = kernel.CreateProcess("ephemeral", ToBytes("e"));
      ASSERT_TRUE(pid.ok());
      Result<kernel::PortId> port = kernel.CreatePort(*pid);
      ASSERT_TRUE(port.ok());
      // Generation-stamped lookup: every port carries the lifecycle
      // generation of its creation, strictly increasing across churn.
      Result<uint64_t> stamp = kernel.PortGeneration(*port);
      ASSERT_TRUE(stamp.ok());
      EXPECT_GT(*stamp, last_port_generation);
      last_port_generation = *stamp;
      EXPECT_TRUE(kernel.ConnectPort(*pid, *port).ok());
      EXPECT_TRUE(kernel.HasChannel(*pid, *port));
      if (i % 2 == 0) {
        EXPECT_TRUE(kernel.DestroyPort(*port).ok());
      }
      EXPECT_TRUE(kernel.KillProcess(*pid).ok());  // Reaps remaining ports.
      EXPECT_FALSE(kernel.IsAlive(*pid));
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(proc_reads.load(), 0u);
  // Every lifecycle mutation stamped the generation counter.
  EXPECT_GE(kernel.lifecycle_generation(),
            generation_before + 3 * static_cast<uint64_t>(kChurnIters));
  // Post-quiescence: the ephemeral processes are gone, the subjects and
  // their verdicts are intact.
  for (int t = 0; t < kWorkers; ++t) {
    EXPECT_TRUE(kernel.IsAlive(subjects[t]));
    for (const kernel::AuthzRequest& request : requests[t]) {
      EXPECT_TRUE(kernel.Authorize(request).ok());
    }
  }
}

// Flight-recorder ring contract under TSan: many writer threads emit into
// their per-thread rings (wrapping them several times over) while readers
// concurrently merge Recent()/ForTrace() views and Clear() races both.
// Readers must only ever observe fully-written events — the per-slot
// seqlock drops torn slots — and nothing may crash or leak a dead ring.
TEST(MtAuthzStressTest, TraceRingConcurrentEmitReadClear) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);

  constexpr int kEmitters = 4;
  constexpr int kEventsPerEmitter = 40000;  // 40x ring capacity: heavy wrap.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_events{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kEmitters; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kEventsPerEmitter; ++i) {
        kernel::TraceEvent e;
        e.trace_id = recorder.NewTraceId();
        e.subject = static_cast<kernel::ProcessId>(t + 1);
        // Payload pattern a reader can validate: aux mirrors trace_id, so
        // a torn slot (words from two different writes) is detectable.
        e.aux = e.trace_id;
        e.stage = kernel::TraceStage::kGuardCheck;
        recorder.Emit(e);
      }
    });
  }
  // Two readers merging all rings while the writers wrap them.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&recorder, &stop, &bad_events] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const kernel::TraceEvent& e : recorder.Recent()) {
          if (e.aux != e.trace_id) {
            ++bad_events;
          }
        }
        std::vector<kernel::TraceEvent> one = recorder.ForTrace(17);
        if (one.size() > 1) {
          ++bad_events;  // A trace id is allocated to exactly one event here.
        }
      }
    });
  }
  // A clearer racing everyone.
  threads.emplace_back([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Clear();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kEmitters; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kEmitters; i < threads.size(); ++i) {
    threads[i].join();
  }

  recorder.set_enabled(false);
  EXPECT_EQ(bad_events.load(), 0u);
  // Emissions landed (heads are monotonic even across Clear()).
  EXPECT_GE(recorder.events_emitted(),
            static_cast<uint64_t>(kEmitters) * kEventsPerEmitter);
  recorder.Clear();
}

// Trace-id propagation under concurrency: parallel traced Authorize calls
// each produce a self-consistent chain — every event of a given trace id
// names the same subject (ids never bleed across threads).
TEST(MtAuthzStressTest, ConcurrentTracedAuthorizeKeepsChainsSeparate) {
  Rng rng(23);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();

  constexpr int kWorkers = 4;
  constexpr int kIters = 300;
  std::vector<kernel::ProcessId> subjects;
  for (int t = 0; t < kWorkers; ++t) {
    subjects.push_back(*nexus.CreateProcess("tw" + std::to_string(t), ToBytes("w")));
  }

  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);

  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&kernel, &subjects, t] {
      for (int i = 0; i < kIters; ++i) {
        // Distinct objects defeat the decision cache so every call walks
        // the full probe -> miss -> verdict pipeline.
        kernel::AuthzRequest request{
            subjects[static_cast<size_t>(t)], kernel::InternOp("use"),
            kernel::InternObject("trace-obj:" + std::to_string(t) + ":" + std::to_string(i))};
        EXPECT_TRUE(kernel.Authorize(request).ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  recorder.set_enabled(false);

  std::map<uint64_t, kernel::ProcessId> chain_subject;
  for (const kernel::TraceEvent& e : recorder.Recent()) {
    if (e.trace_id == 0 || e.subject == 0) {
      continue;
    }
    auto [it, inserted] = chain_subject.emplace(e.trace_id, e.subject);
    if (!inserted) {
      EXPECT_EQ(it->second, e.subject) << "trace id bled across subjects";
    }
  }
  EXPECT_FALSE(chain_subject.empty());
  recorder.Clear();
}

// ------------------------------------------- the shared-line-free hot path
//
// A cached guarded Call writes no cache line other threads share: counters
// are per-thread cells, a decision-cache hit is a seqlock read, and the
// port and interceptor-chain snapshots come from per-thread memos
// validated by an epoch. The tests below pin that none of this loses an
// increment, serves a retired verdict, or serves a stale snapshot.

TEST(MtAuthzStressTest, SeqlockLookupNeverHitsATupleRetiredBeforeItStarted) {
  // Small geometry so the retiring writer and the noise writers keep
  // landing in the shards and subregions the readers probe.
  kernel::DecisionCache::Config config;
  config.num_subregions = 4;
  config.entries_per_subregion = 16;
  config.num_shards = 2;
  kernel::DecisionCache cache(config);
  kernel::OpId op = kernel::InternOp("seqlock_use");
  std::vector<kernel::ObjectId> objects;
  for (int o = 0; o < 4; ++o) {
    objects.push_back(kernel::InternObject("seqlock_obj" + std::to_string(o)));
  }
  constexpr int kRounds = 20000;
  constexpr kernel::ProcessId kRetiredBase = kernel::ProcessId{1} << 32;
  constexpr kernel::ProcessId kNoiseSubjects = 64;
  // Round r inserts its own tuple (never reinserted later), retires it by
  // one of the three invalidation paths, then publishes r. Clear and the
  // subregion broadcast are rarer, so noise entries live long enough to
  // be hit.
  auto retired_tuple = [&](int r) {
    return kernel::AuthzRequest{kRetiredBase + static_cast<kernel::ProcessId>(r), op,
                                objects[r % objects.size()]};
  };
  // Noise tuples always carry the same verdict, so a hit with the other
  // one could only come from a torn read.
  auto noise_verdict = [](kernel::ProcessId s, size_t o) { return ((s ^ o) & 1) == 0; };
  std::atomic<int> retired{-1};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> stale_hits{0}, torn_hits{0}, noise_hits{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    // Runs at least kRounds rounds AND until the readers have done real
    // work, so a slow-starting reader still races the writers.
    for (int r = 0; r < kRounds || reads.load() < 2 * kRounds; ++r) {
      kernel::AuthzRequest request = retired_tuple(r);
      cache.Insert(request, true);
      if (r % 64 == 63) {
        cache.Clear();
      } else if (r % 8 == 7) {
        cache.InvalidateSubregion(request.op, request.obj);
      } else {
        cache.InvalidateEntry(request);
      }
      retired.store(r, std::memory_order_release);
    }
    done.store(true);
  });
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      while (!done.load()) {
        kernel::ProcessId s = 1 + rng.NextBelow(kNoiseSubjects);
        size_t o = rng.NextBelow(objects.size());
        cache.Insert(kernel::AuthzRequest{s, op, objects[o]}, noise_verdict(s, o));
      }
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&, reader] {
      Rng rng(200 + reader);
      while (!done.load()) {
        int r = retired.load(std::memory_order_acquire);
        if (r >= 0 && cache.Lookup(retired_tuple(r)).has_value()) {
          ++stale_hits;
        }
        kernel::ProcessId s = 1 + rng.NextBelow(kNoiseSubjects);
        size_t o = rng.NextBelow(objects.size());
        std::optional<bool> cached = cache.Lookup(kernel::AuthzRequest{s, op, objects[o]});
        if (cached.has_value()) {
          ++noise_hits;
          if (*cached != noise_verdict(s, o)) {
            ++torn_hits;
          }
        }
        ++reads;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(stale_hits.load(), 0u);
  EXPECT_EQ(torn_hits.load(), 0u);
  EXPECT_GT(noise_hits.load(), 0u);
}

class ValueHandler : public kernel::PortHandler {
 public:
  explicit ValueHandler(uint64_t value) : value_(value) {}
  kernel::IpcReply Handle(const kernel::IpcContext& context,
                          const kernel::IpcMessage& message) override {
    (void)context;
    (void)message;
    kernel::IpcReply reply = kernel::IpcReply::Ok();
    reply.AddU64(value_);
    return reply;
  }

 private:
  uint64_t value_;
};

class DenyAllInterceptor : public kernel::Interceptor {
 public:
  kernel::InterposeVerdict OnCall(const kernel::IpcContext& context,
                                  kernel::IpcMessage& message) override {
    (void)context;
    (void)message;
    return kernel::InterposeVerdict::kDeny;
  }
};

// The handler value a Call reached, or 1000 + the error code.
uint64_t CallValue(kernel::Kernel& k, kernel::ProcessId caller, kernel::PortId port) {
  kernel::IpcReply reply = k.Call(caller, port, kernel::IpcMessage::Of("memo_probe"));
  if (!reply.status.ok()) {
    return 1000 + static_cast<uint64_t>(reply.status.code());
  }
  Result<uint64_t> value = reply.ArgU64(0);
  return value.ok() ? *value : 0;
}

constexpr uint64_t kDeniedValue = 1000 + static_cast<uint64_t>(ErrorCode::kPermissionDenied);
constexpr uint64_t kNotFoundValue = 1000 + static_cast<uint64_t>(ErrorCode::kNotFound);

TEST(MtAuthzStressTest, SnapshotMemosSeeEveryWriteOnTheNextCall) {
  kernel::Kernel k;
  kernel::ProcessId server = *k.CreateProcess("memo_server", ToBytes("s"));
  kernel::PortId port = *k.CreatePort(server);
  ValueHandler one(1), two(2);
  DenyAllInterceptor deny;
  ASSERT_TRUE(k.BindHandler(port, &one).ok());
  // Every step calls twice: the second call is served from the warm memo.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(k, server, port), 1u);
  }
  uint64_t token = *k.Interpose(server, port, &deny);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(k, server, port), kDeniedValue);
  }
  ASSERT_TRUE(k.RemoveInterposition(token).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(k, server, port), 1u);
  }
  ASSERT_TRUE(k.BindHandler(port, &two).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(k, server, port), 2u);
  }
  ASSERT_TRUE(k.DestroyPort(port).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(k, server, port), kNotFoundValue);
  }
}

TEST(MtAuthzStressTest, SnapshotMemosSeeWritesPublishedByAnotherThread) {
  kernel::Kernel k;
  kernel::ProcessId server = *k.CreateProcess("memo_server", ToBytes("s"));
  kernel::PortId port = *k.CreatePort(server);
  ValueHandler one(1), two(2);
  DenyAllInterceptor deny;
  ASSERT_TRUE(k.BindHandler(port, &one).ok());
  uint64_t token = *k.Interpose(server, port, &deny);

  // Each phase: the main thread makes one write and publishes the phase;
  // every worker, having warmed its memo under the previous phase, must
  // see the write on its very next call.
  const uint64_t expected[] = {kDeniedValue, 1u, 2u, kNotFoundValue};
  constexpr int kWorkers = 4;
  std::atomic<int> phase{0};
  std::atomic<int> warmed{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&] {
      for (int p = 0; p < 4; ++p) {
        while (phase.load(std::memory_order_acquire) < p) {
          std::this_thread::yield();
        }
        for (int i = 0; i < 50; ++i) {
          if (CallValue(k, server, port) != expected[p]) {
            ++wrong;
          }
        }
        warmed.fetch_add(1);
      }
    });
  }
  auto finish_phase = [&](int p) {
    while (warmed.load() < kWorkers * (p + 1)) {
      std::this_thread::yield();
    }
  };
  finish_phase(0);
  EXPECT_TRUE(k.RemoveInterposition(token).ok());
  phase.store(1, std::memory_order_release);
  finish_phase(1);
  EXPECT_TRUE(k.BindHandler(port, &two).ok());
  phase.store(2, std::memory_order_release);
  finish_phase(2);
  EXPECT_TRUE(k.DestroyPort(port).ok());
  phase.store(3, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(MtAuthzStressTest, RebuiltKernelAtTheSameAddressNeverServesAStaleMemo) {
  ValueHandler one(1), two(2);
  DenyAllInterceptor deny;
  std::optional<kernel::Kernel> k;
  k.emplace();
  const kernel::Kernel* address = &*k;
  kernel::ProcessId server = *k->CreateProcess("memo_server", ToBytes("s"));
  kernel::PortId port = *k->CreatePort(server);
  ASSERT_TRUE(k->BindHandler(port, &one).ok());
  ASSERT_TRUE(k->Interpose(server, port, &deny).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(*k, server, port), kDeniedValue);  // Memos warm.
  }

  // Same storage, same first dynamic port id, same pid sequence: only the
  // epochs tell the two kernels' memo entries apart.
  k.reset();
  k.emplace();
  ASSERT_EQ(&*k, address);
  kernel::ProcessId server2 = *k->CreateProcess("memo_server", ToBytes("s"));
  kernel::PortId port2 = *k->CreatePort(server2);
  ASSERT_EQ(server2, server);
  ASSERT_EQ(port2, port);
  ASSERT_TRUE(k->BindHandler(port2, &two).ok());
  // An interposition elsewhere keeps the chain memo in play for port2.
  kernel::PortId other = *k->CreatePort(server2);
  ASSERT_TRUE(k->Interpose(server2, other, &deny).ok());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CallValue(*k, server2, port2), 2u);
  }
}

TEST(MtAuthzStressTest, MemoizingDdrmUnderConcurrentCallersMatchesUncachedVerdicts) {
  services::DdrmPolicy policy;
  policy.allowed_operations = {"send", "ipc_send", "read_page"};
  policy.allowed_ipc_targets = {7, 9};
  services::DeviceDriverMonitor cached(policy, /*cache_decisions=*/true);
  services::DeviceDriverMonitor uncached(policy, /*cache_decisions=*/false);
  // More distinct call shapes than the memo keeps, so the capped table and
  // the evaluate-fresh overflow path both run concurrently.
  std::vector<kernel::IpcMessage> messages = {
      kernel::IpcMessage::Of("send"), kernel::IpcMessage::Of("recv"),
      kernel::IpcMessage::Of("read_page"), kernel::IpcMessage::Of("ipc_send")};
  for (kernel::PortId target = 0; target < 120; ++target) {
    kernel::IpcMessage message = kernel::IpcMessage::Of("ipc_send");
    message.AddPort(target);
    messages.push_back(message);
  }
  kernel::IpcContext context;
  std::vector<kernel::InterposeVerdict> expected;
  for (const kernel::IpcMessage& message : messages) {
    kernel::IpcMessage copy = message;
    expected.push_back(uncached.OnCall(context, copy));
  }
  constexpr int kThreads = 4;
  constexpr int kPasses = 20;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t j = 0; j < messages.size(); ++j) {
          // Each thread walks the shapes from its own offset, so first
          // sightings (memo misses) race across threads.
          size_t i = (j + static_cast<size_t>(t) * 31) % messages.size();
          kernel::IpcMessage copy = messages[i];
          if (cached.OnCall(context, copy) != expected[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  services::DeviceDriverMonitor::Stats stats = cached.stats();
  EXPECT_EQ(stats.allowed + stats.denied, kThreads * kPasses * messages.size());
}

TEST(MtAuthzStressTest, ProcessWideAuditTalliesAreExactAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr uint64_t kCopies = 2000;
  const Bytes bytes = ToBytes("payload");
  uint64_t copies_before = kernel::IpcPayloadCopyCount();
  uint64_t text_before = kernel::IpcTextPayloadCount();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kCopies; ++i) {
        kernel::Payload copy(bytes);
        kernel::IpcMessage message = kernel::IpcMessage::Of("tally");
        message.AddString("text");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(kernel::IpcPayloadCopyCount() - copies_before, kThreads * kCopies);
  EXPECT_EQ(kernel::IpcTextPayloadCount() - text_before, kThreads * kCopies);
}

}  // namespace
}  // namespace nexus::core
