#include "world.h"

#include "kernel/syscall_ports.h"
#include "nal/interner.h"
#include "nal/parser.h"
#include "nal/proof.h"
#include "util/rng.h"

namespace e2e {

namespace kernel = nexus::kernel;
namespace nal = nexus::nal;
using nexus::Result;
using nexus::Status;

// Workload make-up. Work sizes (round_ops x rounds_per_second) are set so
// one run's timed phase lasts about --seconds on a 4-core 2.0 GHz VM; the
// amount is fixed by --seconds alone, never by measured speed.
Spec SpecByName(const std::string& name, bool* found) {
  Spec spec;
  spec.name = name;
  *found = true;
  if (name == "ipc_hot") {
    // 48 x 25 read tuples + 4 x 4 files x 2 ops stay resident in the
    // decision cache (64 subregions x 64 entries x 8 shards); 25 local
    // objects give every subject exactly 5 proofless ones.
    spec.subjects = 48;
    spec.objects = 29;
    spec.real_subjects = true;
    spec.subject_theta = 0.99;
    spec.proofless_one_in = 5;
    spec.mix = Mix{.authorize = 30, .call = 35, .callmany = 10, .read = 15, .write = 10};
    spec.round_ops = 16384;
    spec.rounds_per_second = 20.0;
    spec.warmup_ops = 16384;
    spec.sweep = true;
    spec.ddrm = true;
    spec.files = true;
    // The attested fabric is crossed rarely here (5 in 10000 authorize
    // submissions, about 1% of the callers' time), so the net layer is
    // measured while the local path still sets the end-to-end figures.
    spec.quorum_objects = 4;
    spec.quorum_per_10k = 5;
  } else if (name == "policy_churn") {
    // 2048 x 64 = 131072 proof-holding pairs against a cache that keeps
    // at most 512 subjects per (op, object) subregion.
    spec.subjects = 2048;
    spec.objects = 64;
    spec.real_subjects = false;
    spec.subject_theta = 0.0;
    spec.proofless_one_in = 8;
    spec.mix = Mix{.authorize = 9990, .setgoal = 2, .proof = 4, .say = 2, .churn = 1,
                   .intern = 1};
    // Long rounds, so every caller's list holds each write verb.
    spec.round_ops = 65536;
    spec.rounds_per_second = 1.125;
    spec.warmup_ops = 8192;
    spec.speakers = 32;
  } else {
    *found = false;
  }
  return spec;
}

kernel::IpcReply GuardedService::Handle(const kernel::IpcContext& context,
                                        const kernel::IpcMessage& message) {
  Result<kernel::ObjectId> obj = message.ArgObject(0);
  if (!obj.ok()) {
    return kernel::IpcReply(obj.status());
  }
  kernel::IpcReply reply(kernel_->Authorize(kernel::AuthzRequest{context.caller, message.op, *obj}));
  reply.AddU64(reply.status.ok() ? 1 : 0);
  return reply;
}

void GuardedService::HandleMany(const kernel::IpcContext& context,
                                std::span<const kernel::IpcMessage> messages,
                                std::span<kernel::IpcReply> replies) {
  std::vector<kernel::AuthzRequest> requests;
  std::vector<size_t> slots;
  requests.reserve(messages.size());
  slots.reserve(messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    Result<kernel::ObjectId> obj = messages[i].ArgObject(0);
    if (!obj.ok()) {
      replies[i] = kernel::IpcReply(obj.status());
      continue;
    }
    slots.push_back(i);
    requests.push_back(kernel::AuthzRequest{context.caller, messages[i].op, *obj});
  }
  std::vector<Status> verdicts = kernel_->AuthorizeBatch(requests);
  for (size_t j = 0; j < slots.size(); ++j) {
    kernel::IpcReply reply(verdicts[j]);
    reply.AddU64(reply.status.ok() ? 1 : 0);
    replies[slots[j]] = std::move(reply);
  }
}

namespace {

Status SetUpFederation(World& w) {
  w.transport = std::make_unique<nexus::net::Transport>(/*seed=*/0x5EED);
  std::vector<nexus::core::Nexus*> homes;
  for (size_t i = 0; i < 3; ++i) {
    nexus::Rng rng(0xFED0 + i);
    w.home_tpms.push_back(std::make_unique<nexus::tpm::Tpm>(rng));
    w.homes.push_back(std::make_unique<nexus::core::Nexus>(w.home_tpms.back().get()));
    homes.push_back(w.homes.back().get());
  }
  nexus::apps::PresenceFederation::Config config;
  config.quorum = 2;
  w.federation = std::make_unique<nexus::apps::PresenceFederation>(w.nexus.get(), homes,
                                                                   w.transport.get(), config);
  NEXUS_RETURN_IF_ERROR(w.federation->init_status());
  NEXUS_RETURN_IF_ERROR(w.federation->Connect());
  // The session the allow goals' liveness leaf names: typed at home 0,
  // shipped through the mesh, signed up once through the quorum.
  w.federation->Type("fleet", static_cast<int>(config.min_keypresses) + 1);
  NEXUS_RETURN_IF_ERROR(w.federation->ShipPresence("fleet"));
  return w.federation->SignUp("fleet");
}

Status SetUpFiles(World& w, const std::vector<nexus::Bytes>& contents, bool trace) {
  kernel::Kernel& k = w.nexus->kernel();
  for (size_t t = 0; t < kCallers; ++t) {
    FileClient client;
    Result<kernel::ProcessId> pid =
        w.nexus->CreateProcess("bench_client_" + std::to_string(t), nexus::ToBytes("client"));
    NEXUS_RETURN_IF_ERROR(pid.status());
    client.pid = *pid;
    for (size_t j = 0; j < kFilesPerCaller; ++j) {
      std::string path = "/bench/c" + std::to_string(t) + "/f" + std::to_string(j);
      NEXUS_RETURN_IF_ERROR(w.nexus->fs().CreateFile(path, contents[t * kFilesPerCaller + j]));
      kernel::IpcMessage open = kernel::IpcMessage::Of("open");
      open.AddString(path);
      kernel::IpcReply reply = k.Invoke(client.pid, kernel::Syscall::kOpen, open);
      NEXUS_RETURN_IF_ERROR(reply.status);
      Result<uint64_t> fd = reply.ArgU64(0);
      NEXUS_RETURN_IF_ERROR(fd.status());
      client.paths.push_back(path);
      client.fds.push_back(*fd);
    }
    w.clients.push_back(std::move(client));
  }
  services::RedactionPolicy policy;
  policy.redact_begin = kRedactBegin;
  policy.redact_end = kRedactEnd;
  policy.fill = kRedactFill;
  w.redactor = std::make_unique<services::ReadRedactionMonitor>(policy);
  kernel::Interceptor* redactor = w.redactor.get();
  if (trace) {
    w.redactor_tap = std::make_unique<InterceptorTap>(redactor, kSpanRedactor);
    redactor = w.redactor_tap.get();
    w.fs_tap = std::make_unique<HandlerTap>(&w.nexus->fs());
    NEXUS_RETURN_IF_ERROR(k.BindHandler(kernel::kFsBootPort, w.fs_tap.get()));
  }
  Result<kernel::ProcessId> monitor =
      w.nexus->CreateProcess("bench_redactor", nexus::ToBytes("redactor"));
  NEXUS_RETURN_IF_ERROR(monitor.status());
  Result<uint64_t> token = k.Interpose(*monitor, kernel::kFsBootPort, redactor);
  NEXUS_RETURN_IF_ERROR(token.status());
  w.redactor_token = *token;
  return nexus::OkStatus();
}

}  // namespace

Result<std::unique_ptr<World>> BuildWorld(const Spec& spec, const VerdictModel& model,
                                          const std::vector<nexus::Bytes>& file_contents,
                                          bool trace) {
  auto w = std::make_unique<World>();
  nexus::Rng tpm_rng(0x7E57);
  w->tpm = std::make_unique<nexus::tpm::Tpm>(tpm_rng);
  w->nexus = std::make_unique<nexus::core::Nexus>(w->tpm.get());
  kernel::Kernel& k = w->nexus->kernel();
  nexus::core::Engine& engine = w->nexus->engine();
  if (trace) {
    w->engine_tap = std::make_unique<EngineTap>(&engine);
    k.set_engine(w->engine_tap.get());
  }

  Result<nal::Formula> base = nal::ParseFormula("BenchCA says member(bench)");
  NEXUS_RETURN_IF_ERROR(base.status());
  Result<nal::Formula> deny = nal::ParseFormula("BenchCA says banned(bench)");
  NEXUS_RETURN_IF_ERROR(deny.status());
  Result<nal::Formula> credential = nal::ParseFormula("member(bench)");
  NEXUS_RETURN_IF_ERROR(credential.status());
  engine.SayAs(nal::Principal("BenchCA"), *credential);
  w->deny_goal = *deny;
  w->deny_goal_id = nal::Interner::Global().Intern(w->deny_goal);
  w->local.allow_goal = *base;
  w->local.proof = nal::proof::Premise(*base);
  w->local.allow_goal_id = nal::Interner::Global().Intern(w->local.allow_goal);
  w->local_objects = spec.objects - spec.quorum_objects;
  if (spec.quorum_objects > 0) {
    NEXUS_RETURN_IF_ERROR(SetUpFederation(*w));
    Result<nal::Formula> leaf = nal::ParseFormula("Session says sessionActive(fleet)");
    NEXUS_RETURN_IF_ERROR(leaf.status());
    w->quorum.allow_goal = nal::FormulaNode::And(*base, *leaf);
    w->quorum.proof =
        nal::proof::AndIntro(nal::proof::Premise(*base), nal::proof::Authority(*leaf));
    w->quorum.allow_goal_id = nal::Interner::Global().Intern(w->quorum.allow_goal);
  }
  w->read_op = kernel::InternOp("bench_read");

  Result<kernel::ProcessId> svc = w->nexus->CreateProcess("bench_svc", nexus::ToBytes("svc"));
  NEXUS_RETURN_IF_ERROR(svc.status());
  w->service_pid = *svc;
  Result<kernel::PortId> port = w->nexus->CreatePort(w->service_pid);
  NEXUS_RETURN_IF_ERROR(port.status());
  w->service_port = *port;
  w->service = std::make_unique<GuardedService>(&k);
  kernel::PortHandler* handler = w->service.get();
  if (trace) {
    w->service_tap = std::make_unique<HandlerTap>(handler);
    handler = w->service_tap.get();
  }
  NEXUS_RETURN_IF_ERROR(k.BindHandler(w->service_port, handler));

  for (size_t o = 0; o < spec.objects; ++o) {
    kernel::ObjectId obj = kernel::InternObject("bench:obj:" + std::to_string(o));
    w->objects.push_back(obj);
    NEXUS_RETURN_IF_ERROR(engine.RegisterObject(obj, w->service_pid, w->service_pid));
    NEXUS_RETURN_IF_ERROR(
        engine.SetGoal(w->service_pid, w->read_op, obj, w->PolicyOf(o).allow_goal));
  }
  for (size_t s = 0; s < spec.subjects; ++s) {
    if (spec.real_subjects) {
      Result<kernel::ProcessId> pid =
          w->nexus->CreateProcess("bench_subj_" + std::to_string(s), nexus::ToBytes("subj"));
      NEXUS_RETURN_IF_ERROR(pid.status());
      w->subjects.push_back(*pid);
    } else {
      // No process record: the authorization path roots such a subject's
      // quota at its own id, which is what lets thousands of proof holders
      // exist without thousands of processes.
      w->subjects.push_back((kernel::ProcessId{1} << 40) + s);
    }
  }
  for (size_t s = 0; s < spec.subjects; ++s) {
    for (size_t o = 0; o < spec.objects; ++o) {
      if (model.InitialProof(s, o)) {
        NEXUS_RETURN_IF_ERROR(engine.SetProof(
            kernel::AuthzRequest{w->subjects[s], w->read_op, w->objects[o]}, w->PolicyOf(o).proof));
      }
    }
  }
  for (size_t i = 0; i < spec.speakers; ++i) {
    Result<kernel::ProcessId> pid =
        w->nexus->CreateProcess("bench_speaker_" + std::to_string(i), nexus::ToBytes("spk"));
    NEXUS_RETURN_IF_ERROR(pid.status());
    w->speakers.push_back(*pid);
  }

  if (spec.ddrm) {
    services::DdrmPolicy policy;
    policy.allowed_operations = {"bench_read"};
    // cache_decisions=false: the monitor's memo is a plain map, unsafe
    // under concurrent callers; every call runs its policy proof check.
    w->ddrm = std::make_unique<services::DeviceDriverMonitor>(policy, /*cache_decisions=*/false);
    kernel::Interceptor* monitor = w->ddrm.get();
    if (trace) {
      w->ddrm_tap = std::make_unique<InterceptorTap>(monitor, kSpanDdrm);
      monitor = w->ddrm_tap.get();
    }
    Result<kernel::ProcessId> pid = w->nexus->CreateProcess("bench_ddrm", nexus::ToBytes("ddrm"));
    NEXUS_RETURN_IF_ERROR(pid.status());
    NEXUS_RETURN_IF_ERROR(k.Interpose(*pid, w->service_port, monitor).status());
  }
  if (spec.files) {
    NEXUS_RETURN_IF_ERROR(SetUpFiles(*w, file_contents, trace));
  }
  return w;
}

}  // namespace e2e
