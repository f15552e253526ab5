#include "core/engine.h"

#include <algorithm>

#include "nal/parser.h"

namespace nexus::core {

using kernel::AuthzDecision;
using kernel::AuthzRequest;

namespace {

// Policy-plane mutation record for the global MutationLog. Stamped with
// the mutated subregion's per-shard decision-cache generations as reported
// by the invalidation itself — the EXACT post-bump values, read under the
// bump's lock, so the auditor can place each mutation precisely on the
// generation axis (an after-the-fact SubregionGenerations read would race
// other threads' bumps and overshoot). kSay mutations carry no
// generations: labels are append-only and never invalidate verdicts.
void LogMutation(kernel::MutationKind kind, kernel::ProcessId subject, kernel::OpId op,
                 kernel::ObjectId obj, uint64_t detail,
                 std::vector<uint64_t> generations) {
  kernel::MutationLog& log = kernel::MutationLog::Global();
  if (!log.enabled()) {
    return;
  }
  kernel::MutationRecord record;
  record.kind = kind;
  record.subject = subject;
  record.op = op;
  record.obj = obj;
  record.detail = detail;
  record.generations = std::move(generations);
  log.Append(std::move(record));
}

// Generation stamp for a single-entry (proof) invalidation: only the
// subject's shard was bumped, and only that shard's stamp must be exact
// (it is `post_gen`, read under the bump's lock). The other shards' slots
// are a best-effort snapshot — the auditor only consults the shard a
// verdict actually ran in, which for this tuple is the subject's shard.
std::vector<uint64_t> ProofMutationGens(kernel::Kernel* kernel,
                                        const kernel::AuthzRequest& tuple,
                                        uint64_t post_gen) {
  std::vector<uint64_t> gens =
      kernel->decision_cache().SubregionGenerations(tuple.op, tuple.obj);
  size_t shard = kernel->decision_cache().ShardOf(tuple.subject);
  if (shard < gens.size()) {
    gens[shard] = post_gen;
  }
  return gens;
}

// Stage event for a traced request reaching the engine (a decision-cache
// miss) or leaving it for a designated guard. No-op when untraced.
void EmitEngineEvent(const AuthzRequest& request, kernel::TraceStage stage, uint64_t aux,
                     uint16_t flags) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  if (!recorder.enabled()) {
    return;
  }
  uint64_t id = request.trace != 0 ? request.trace : kernel::CurrentTraceId();
  if (id == 0) {
    return;
  }
  kernel::TraceEvent e;
  e.trace_id = id;
  e.subject = request.subject;
  e.op = request.op;
  e.obj = request.obj;
  e.aux = aux;
  e.flags = flags;
  e.stage = stage;
  recorder.Emit(e);
}

}  // namespace

Engine::Engine(kernel::Kernel* kernel, Guard* default_guard)
    : kernel_(kernel), default_guard_(default_guard) {}

AuthzDecision Engine::DefaultPolicy(const AuthzRequest& request) {
  default_policy_->Increment();
  // Unregistered objects (ambient resources like the bare syscall object)
  // are unguarded until someone registers or sets a goal on them.
  if (!objects_.Known(request.obj)) {
    return AuthzDecision::Allow();
  }
  // A nascent object with no goal is satisfiable only by the object's owner
  // or the resource manager that created it (its superprincipal).
  std::optional<kernel::ProcessId> owner = objects_.Owner(request.obj);
  std::optional<kernel::ProcessId> manager = objects_.Manager(request.obj);
  if (request.subject == kernel::kKernelProcessId ||
      (owner.has_value() && request.subject == *owner) ||
      (manager.has_value() && request.subject == *manager)) {
    return AuthzDecision::Allow();
  }
  return AuthzDecision::Deny(
      PermissionDenied("bootstrap policy: only the owner or resource manager may access " +
                       std::string(request.object())),
      true);
}

AuthzDecision Engine::UpcallDesignatedGuard(const AuthzRequest& request,
                                            const GoalEntry& goal, const nal::Proof& proof,
                                            const std::vector<nal::Formula>& credentials) {
  // Guard processes are user-level servers written to the one-Handle-at-a-
  // time contract; concurrent misses hitting designated goals must not run
  // their handlers in parallel. Recursive: a designated guard may re-enter
  // authorization that lands on another designated goal on this thread.
  // (No other engine lock is held here, so re-entrant Say/SetProof from
  // the guard process still work.)
  std::lock_guard<std::recursive_mutex> serialize(designated_mu_);
  designated_upcalls_->Increment();
  EmitEngineEvent(request, kernel::TraceStage::kGuardUpcall, goal.guard_port,
                  kernel::kTraceFlagUpcall);
  // Typed v2 upcall: subject/op/obj cross as id slots (no stringify), the
  // proof as serialized text (it is a subject-supplied tree), credentials
  // newline-separated in data. The proof slot inherits the ABI's 64 KiB
  // per-slot bound, enforced identically with interposition on or off
  // (ValidateWireBounds) — a deeper proof must be pre-registered via
  // SetProof and referenced, not shipped inline per call.
  static const kernel::OpId check_op = kernel::InternOp("check");
  kernel::IpcMessage ipc_request = kernel::IpcMessage::Of(check_op);
  ipc_request.AddProcess(request.subject)
      .AddU64(request.op)
      .AddObject(request.obj)
      .AddString(proof == nullptr ? "(premise \"false\")" : nal::SerializeProof(proof));
  std::string blob;
  for (const nal::Formula& cred : credentials) {
    blob += cred->ToString();
    blob += '\n';
  }
  ipc_request.data = ToBytes(blob);
  kernel::IpcReply reply = kernel_->Call(request.subject, goal.guard_port, ipc_request);
  return AuthzDecision::FromStatus(reply.status, reply.value() == 1);
}

AuthzDecision Engine::Authorize(const AuthzRequest& request) {
  misses_->Increment();
  EmitEngineEvent(request, kernel::TraceStage::kEngineMiss, 0, 0);
  std::optional<GoalEntry> goal = goals_.Get(request.op, request.obj);
  if (!goal.has_value()) {
    return DefaultPolicy(request);
  }

  // Snapshot the miss inputs under the reader side of the state plane:
  // the pre-submitted proof, the credential set, and the version stamp.
  // All are shared_ptr copies of immutable trees, safe to evaluate after
  // the lock is gone.
  TupleKey key = KeyOf(request);
  nal::Proof proof;
  std::vector<nal::Formula> credentials;
  uint64_t state_version;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    auto proof_it = proofs_.find(key);
    proof = proof_it == proofs_.end() ? nullptr : proof_it->second;
    AppendSubjectCredentialsLocked(request.subject, &credentials);
    AppendObjectCredentialsLocked(request.obj, &credentials);
    state_version = StateVersionLocked(request.subject, request.obj, key);
  }

  if (goal->guard_port != 0) {
    // Arbitrary guard-process code: no engine lock may be held.
    return UpcallDesignatedGuard(request, *goal, proof, credentials);
  }

  // Guard evaluation — including any remote-authority round trips — runs
  // under only the subject's stripe, so independent subjects' misses
  // overlap end to end.
  std::lock_guard<std::recursive_mutex> stripe(stripes_[StripeOf(request.subject)]);
  return default_guard_->Check(request, goal->goal, proof, credentials, state_version,
                               goal->goal_id);
}

std::vector<AuthzDecision> Engine::AuthorizeBatch(std::span<const AuthzRequest> requests) {
  misses_->Increment(requests.size());
  std::vector<AuthzDecision> decisions(requests.size());

  // The batch is processed in SEGMENTS bounded by designated-guard items:
  // snapshot a segment under the reader lock, evaluate it under the
  // segment subjects' stripes, then run the designated upcall (which may
  // mutate label state) with no lock held, so everything after it
  // re-snapshots and observes the mutation exactly as the serial path
  // would.
  size_t i = 0;
  while (i < requests.size()) {
    std::vector<Guard::BatchItem> guard_items;
    std::vector<size_t> guard_slots;
    bool have_designated = false;
    size_t designated_slot = 0;
    GoalEntry designated_goal;
    nal::Proof designated_proof;
    std::vector<nal::Formula> designated_credentials;

    {
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      // Credential amortization: the subject-store + system-store prefix
      // is identical for every request by one subject; collect it once per
      // segment and only append per-object auxiliary labels.
      std::map<kernel::ProcessId, std::vector<nal::Formula>> base_credentials;
      for (; i < requests.size(); ++i) {
        const AuthzRequest& request = requests[i];
        std::optional<GoalEntry> goal = goals_.Get(request.op, request.obj);
        if (!goal.has_value()) {
          decisions[i] = DefaultPolicy(request);
          continue;
        }

        TupleKey key = KeyOf(request);
        auto proof_it = proofs_.find(key);
        nal::Proof proof = proof_it == proofs_.end() ? nullptr : proof_it->second;

        auto base = base_credentials.find(request.subject);
        if (base == base_credentials.end()) {
          std::vector<nal::Formula> creds;
          AppendSubjectCredentialsLocked(request.subject, &creds);
          base = base_credentials.emplace(request.subject, std::move(creds)).first;
        }
        std::vector<nal::Formula> credentials = base->second;
        AppendObjectCredentialsLocked(request.obj, &credentials);

        if (goal->guard_port != 0) {
          // End of segment: evaluate everything snapshotted so far first,
          // then upcall. The credential memo dies with the segment.
          have_designated = true;
          designated_slot = i;
          designated_goal = *goal;
          designated_proof = std::move(proof);
          designated_credentials = std::move(credentials);
          ++i;
          break;
        }

        guard_items.push_back(
            Guard::BatchItem{request, goal->goal, goal->goal_id, std::move(proof),
                             std::move(credentials),
                             StateVersionLocked(request.subject, request.obj, key)});
        guard_slots.push_back(i);
      }
    }

    if (!guard_items.empty()) {
      // Acquire every involved subject's stripe in ascending index order —
      // a canonical order, so concurrent batches never deadlock — and
      // evaluate the segment. Remote round trips inside CheckBatch overlap
      // across peers; other subjects' single misses overlap with this
      // batch unless their stripe is involved.
      std::vector<size_t> stripe_indices;
      stripe_indices.reserve(guard_items.size());
      for (const Guard::BatchItem& item : guard_items) {
        stripe_indices.push_back(StripeOf(item.request.subject));
      }
      std::sort(stripe_indices.begin(), stripe_indices.end());
      stripe_indices.erase(std::unique(stripe_indices.begin(), stripe_indices.end()),
                           stripe_indices.end());
      for (size_t s : stripe_indices) {
        stripes_[s].lock();
      }
      std::vector<AuthzDecision> guard_decisions = default_guard_->CheckBatch(guard_items);
      for (auto it = stripe_indices.rbegin(); it != stripe_indices.rend(); ++it) {
        stripes_[*it].unlock();
      }
      for (size_t j = 0; j < guard_slots.size(); ++j) {
        decisions[guard_slots[j]] = std::move(guard_decisions[j]);
      }
    }

    if (have_designated) {
      decisions[designated_slot] = UpcallDesignatedGuard(
          requests[designated_slot], designated_goal, designated_proof,
          designated_credentials);
    }
  }
  return decisions;
}

uint64_t Engine::StateVersionLocked(kernel::ProcessId subject, kernel::ObjectId object,
                                    const TupleKey& proof_key) const {
  uint64_t version = 1 + system_store_.version();
  auto store = stores_.find(subject);
  if (store != stores_.end()) {
    version += store->second.version();
  }
  auto extras = object_labels_.find(object);
  if (extras != object_labels_.end()) {
    version += extras->second.size();
  }
  auto proof_version = proof_versions_.find(proof_key);
  if (proof_version != proof_versions_.end()) {
    version += proof_version->second;
  }
  return version;
}

Result<LabelHandle> Engine::Say(kernel::ProcessId speaker, const std::string& statement_text) {
  Result<nal::Formula> statement = nal::ParseFormula(statement_text);
  if (!statement.ok()) {
    return statement.status();
  }
  return SayFormula(speaker, *statement);
}

Result<LabelHandle> Engine::SayFormula(kernel::ProcessId speaker,
                                       const nal::Formula& statement) {
  if (!kernel_->IsAlive(speaker)) {
    return NotFound("speaker process not alive");
  }
  if (!nal::IsGround(statement)) {
    return InvalidArgument("labels must be ground formulas");
  }
  // The speaker is, by construction, the calling process's principal: the
  // secure syscall channel substitutes for a signature (§2.3).
  Result<LabelHandle> handle = [&] {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    return stores_[speaker].Insert(kernel_->ProcessPrincipal(speaker), statement);
  }();
  if (handle.ok()) {
    LogMutation(kernel::MutationKind::kSay, speaker, 0, 0,
                nal::Interner::Global().Intern(statement), {});
  }
  return handle;
}

LabelHandle Engine::SayAs(const nal::Principal& speaker, const nal::Formula& statement) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return system_store_.Insert(speaker, statement);
}

Status Engine::DeleteSystemLabel(LabelHandle handle) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return system_store_.Delete(handle);
}

void Engine::AddObjectLabel(kernel::ObjectId object, const nal::Formula& label) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  object_labels_[object].push_back(label);
}

Status Engine::SetGoal(kernel::ProcessId caller, kernel::OpId op, kernel::ObjectId obj,
                       nal::Formula goal, kernel::PortId guard_port) {
  // setgoal is itself an authorized operation on the object (§2.5). It is
  // governed by the goal for ("setgoal", object) if present, else the
  // bootstrap policy. The check runs BEFORE any engine lock is taken: it
  // re-enters authorization through the kernel (and may run a designated
  // guard), which under the old monitor needed a recursive mutex.
  static const kernel::OpId setgoal_op = kernel::InternOp("setgoal");
  Status authorized = kernel_->Authorize(AuthzRequest{caller, setgoal_op, obj});
  if (!authorized.ok()) {
    return authorized;
  }
  NEXUS_RETURN_IF_ERROR(goals_.SetGoal(op, obj, std::move(goal), guard_port));
  // A goal update may invalidate many cached decisions: clear the (op,
  // object) subregion (§2.8). Mutation first, then the generation bump —
  // a miss that snapshotted in between is dropped by the kernel's
  // generation-checked insert.
  const bool log_on = kernel::MutationLog::Global().enabled();
  std::vector<uint64_t> post_gens;
  kernel_->OnGoalUpdate(op, obj, log_on ? &post_gens : nullptr);
  if (log_on) {
    // Re-probe for the installed goal's interned id (the store interns on
    // SetGoal); only paid when the log is on. Concurrent SetGoals on ONE
    // (op, obj) must be externally serialized for the log to reflect
    // install order — the auditor documents the same requirement.
    std::optional<GoalEntry> installed = goals_.Get(op, obj);
    LogMutation(kernel::MutationKind::kSetGoal, caller, op, obj,
                installed.has_value() ? installed->goal_id : 0, std::move(post_gens));
  }
  return OkStatus();
}

Status Engine::SetGoal(kernel::ProcessId caller, const std::string& operation,
                       const std::string& object, nal::Formula goal,
                       kernel::PortId guard_port) {
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(operation, "operation"));
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(object, "object"));
  return SetGoal(caller, kernel::InternOp(operation), kernel::InternObject(object),
                 std::move(goal), guard_port);
}

Status Engine::ClearGoal(kernel::ProcessId caller, kernel::OpId op, kernel::ObjectId obj) {
  static const kernel::OpId setgoal_op = kernel::InternOp("setgoal");
  Status authorized = kernel_->Authorize(AuthzRequest{caller, setgoal_op, obj});
  if (!authorized.ok()) {
    return authorized;
  }
  NEXUS_RETURN_IF_ERROR(goals_.ClearGoal(op, obj));
  const bool log_on = kernel::MutationLog::Global().enabled();
  std::vector<uint64_t> post_gens;
  kernel_->OnGoalUpdate(op, obj, log_on ? &post_gens : nullptr);
  if (log_on) {
    LogMutation(kernel::MutationKind::kClearGoal, caller, op, obj, 0,
                std::move(post_gens));
  }
  return OkStatus();
}

Status Engine::ClearGoal(kernel::ProcessId caller, const std::string& operation,
                         const std::string& object) {
  // Never-interned names cannot name a goal; don't grow the tables just to
  // return NotFound.
  std::optional<kernel::OpId> op = kernel::FindOp(operation);
  std::optional<kernel::ObjectId> obj = kernel::FindObject(object);
  if (!op.has_value() || !obj.has_value()) {
    return NotFound("no goal for " + operation + " on " + object);
  }
  return ClearGoal(caller, *op, *obj);
}

Status Engine::SetProof(const AuthzRequest& tuple, nal::Proof proof) {
  if (proof == nullptr) {
    return InvalidArgument("null proof");
  }
  TupleKey key = KeyOf(tuple);
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    proofs_[key] = std::move(proof);
    ++proof_versions_[key];
  }
  // A proof update invalidates the single affected cache entry (§2.8);
  // mutation first, then the generation bump (see SetGoal).
  const bool log_on = kernel::MutationLog::Global().enabled();
  uint64_t post_gen = 0;
  kernel_->OnProofUpdate(tuple, log_on ? &post_gen : nullptr);
  if (log_on) {
    LogMutation(kernel::MutationKind::kSetProof, tuple.subject, tuple.op, tuple.obj, 0,
                ProofMutationGens(kernel_, tuple, post_gen));
  }
  return OkStatus();
}

Status Engine::SetProof(kernel::ProcessId subject, const std::string& operation,
                        const std::string& object, nal::Proof proof) {
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(operation, "operation"));
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(object, "object"));
  return SetProof(AuthzRequest::Of(subject, operation, object), std::move(proof));
}

Status Engine::ClearProof(const AuthzRequest& tuple) {
  TupleKey key = KeyOf(tuple);
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    if (proofs_.erase(key) == 0) {
      return NotFound("no proof for this tuple");
    }
    ++proof_versions_[key];
  }
  const bool log_on = kernel::MutationLog::Global().enabled();
  uint64_t post_gen = 0;
  kernel_->OnProofUpdate(tuple, log_on ? &post_gen : nullptr);
  if (log_on) {
    LogMutation(kernel::MutationKind::kClearProof, tuple.subject, tuple.op, tuple.obj, 0,
                ProofMutationGens(kernel_, tuple, post_gen));
  }
  return OkStatus();
}

Status Engine::ClearProof(kernel::ProcessId subject, const std::string& operation,
                          const std::string& object) {
  std::optional<kernel::OpId> op = kernel::FindOp(operation);
  std::optional<kernel::ObjectId> obj = kernel::FindObject(object);
  if (!op.has_value() || !obj.has_value()) {
    return NotFound("no proof for this tuple");
  }
  return ClearProof(AuthzRequest{subject, *op, *obj});
}

Status Engine::RegisterObject(kernel::ObjectId object, kernel::ProcessId owner,
                              kernel::ProcessId manager) {
  return objects_.Register(object, owner, manager);
}

Status Engine::RegisterObject(const std::string& object, kernel::ProcessId owner,
                              kernel::ProcessId manager) {
  return objects_.Register(object, owner, manager);
}

Status Engine::TransferOwnership(kernel::ProcessId caller, const std::string& object,
                                 kernel::ProcessId new_owner) {
  std::optional<kernel::ProcessId> owner = objects_.Owner(object);
  std::optional<kernel::ProcessId> manager = objects_.Manager(object);
  bool caller_may = caller == kernel::kKernelProcessId ||
                    (owner.has_value() && caller == *owner) ||
                    (manager.has_value() && caller == *manager);
  if (!caller_may) {
    return PermissionDenied("only the owner or resource manager may transfer ownership");
  }
  NEXUS_RETURN_IF_ERROR(objects_.TransferOwnership(object, new_owner));
  // The manager documents the transfer with a label:
  //   manager says new-owner speaksfor object (§2.6).
  nal::Principal object_principal =
      kernel_->ProcessPrincipal(manager.value_or(kernel::kKernelProcessId)).Sub(object);
  SayAs(kernel_->ProcessPrincipal(manager.value_or(kernel::kKernelProcessId)),
        nal::FormulaNode::SpeaksFor(kernel_->ProcessPrincipal(new_owner), object_principal));
  return OkStatus();
}

void Engine::AppendSubjectCredentialsLocked(kernel::ProcessId subject,
                                            std::vector<nal::Formula>* out) const {
  auto subject_store = stores_.find(subject);
  if (subject_store != stores_.end()) {
    for (const nal::Formula& f : subject_store->second.All()) {
      out->push_back(f);
    }
  }
  for (const nal::Formula& f : system_store_.All()) {
    out->push_back(f);
  }
}

void Engine::AppendObjectCredentialsLocked(kernel::ObjectId object,
                                           std::vector<nal::Formula>* out) const {
  auto object_extras = object_labels_.find(object);
  if (object_extras != object_labels_.end()) {
    for (const nal::Formula& f : object_extras->second) {
      out->push_back(f);
    }
  }
}

std::vector<nal::Formula> Engine::CollectCredentials(kernel::ProcessId subject,
                                                     kernel::ObjectId object) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  std::vector<nal::Formula> credentials;
  AppendSubjectCredentialsLocked(subject, &credentials);
  AppendObjectCredentialsLocked(object, &credentials);
  return credentials;
}

}  // namespace nexus::core
