#include "services/ddrm.h"

#include "nal/checker.h"
#include "nal/proof.h"

namespace nexus::services {

namespace {

// Hoisted: the content-access and IPC-target policy hooks compare interned
// ids, not operation strings, on every intercepted call.
const kernel::OpId kReadPageOp = kernel::InternOp("read_page");
const kernel::OpId kWritePageOp = kernel::InternOp("write_page");
const kernel::OpId kIpcSendOp = kernel::InternOp("ipc_send");

nal::Formula AllowsFormula(std::string_view operation) {
  return nal::FormulaNode::Says(
      nal::Principal("Policy"),
      nal::FormulaNode::Pred("allows", {nal::Term::Symbol(std::string(operation))}));
}

}  // namespace

DeviceDriverMonitor::DeviceDriverMonitor(DdrmPolicy policy, bool cache_decisions)
    : policy_(std::move(policy)), cache_decisions_(cache_decisions) {
  for (const std::string& operation : policy_.allowed_operations) {
    policy_credentials_.push_back(AllowsFormula(operation));
  }
}

bool DeviceDriverMonitor::Evaluate(const kernel::IpcMessage& message) {
  // The policy question "may this driver invoke <op>?" is discharged as a
  // proof check against the policy labels — the guard machinery a Nexus
  // reference monitor really runs. The memo above caches its outcome.
  nal::Formula goal = AllowsFormula(message.operation());
  nal::CheckResult checked =
      nal::CheckProof(nal::proof::Premise(goal), goal, policy_credentials_);
  if (!checked.status.ok()) {
    return false;
  }
  if (!policy_.allow_page_content_access &&
      (message.op == kReadPageOp || message.op == kWritePageOp)) {
    return false;
  }
  if (message.op == kIpcSendOp && !policy_.allowed_ipc_targets.empty()) {
    // The target port is an integer slot (or legacy decimal text, decoded
    // at the accessor's single validated point — malformed text is a deny,
    // never a std::stoull throw out of the monitor).
    Result<kernel::PortId> target = message.ArgPort(0);
    if (!target.ok() || !policy_.allowed_ipc_targets.contains(*target)) {
      return false;
    }
  }
  return true;
}

bool DeviceDriverMonitor::MemoizedVerdict(const MemoKey& key,
                                          const kernel::IpcMessage& message) {
  if (const MemoTable* table = decision_memo_.load(std::memory_order_acquire)) {
    auto it = table->find(key);
    if (it != table->end()) {
      return it->second;
    }
  }
  // Miss: the verdict is a pure function of the key and the immutable
  // policy, so evaluating outside the lock is safe; only publication is
  // serialized.
  bool allowed = Evaluate(message);
  std::lock_guard<std::mutex> lock(memo_mu_);
  const MemoTable* current = decision_memo_.load(std::memory_order_relaxed);
  size_t size = current == nullptr ? 0 : current->size();
  if (size < kMaxMemoEntries && (current == nullptr || !current->contains(key))) {
    auto next = current == nullptr ? std::make_unique<MemoTable>()
                                   : std::make_unique<MemoTable>(*current);
    next->emplace(key, allowed);
    decision_memo_.store(next.get(), std::memory_order_release);
    memo_versions_.push_back(std::move(next));
  }
  return allowed;
}

kernel::InterposeVerdict DeviceDriverMonitor::OnCall(const kernel::IpcContext& context,
                                                     kernel::IpcMessage& message) {
  (void)context;
  // Only memoize calls the integer key can represent faithfully: a
  // resolved op, and — for ipc_send — a parseable target. Everything else
  // (unresolved legacy ops reaching OnCall directly, garbage targets)
  // evaluates fresh, so no verdict is ever replayed for a different call
  // shape than the one that produced it.
  bool memoizable = cache_decisions_ && !message.needs_op_resolution();
  MemoKey key{message.op, MemoShape::kPlain, 0};
  if (memoizable && message.op == kIpcSendOp && !message.args.empty()) {
    Result<kernel::PortId> target = message.ArgPort(0);
    if (target.ok()) {
      key = MemoKey{message.op, MemoShape::kTarget, *target};
    } else {
      memoizable = false;
    }
  }
  bool allowed = memoizable ? MemoizedVerdict(key, message) : Evaluate(message);
  if (allowed) {
    stats_.allowed->Increment();
    return kernel::InterposeVerdict::kAllow;
  }
  stats_.denied->Increment();
  return kernel::InterposeVerdict::kDeny;
}

Status DeviceDriverMonitor::AttestDriver(core::Engine* engine, kernel::ProcessId self,
                                         kernel::ProcessId driver) const {
  std::string driver_path = kernel::Kernel::ProcPath(driver);
  Result<core::LabelHandle> mediated = engine->SayFormula(
      self, nal::FormulaNode::Pred("mediated", {nal::Term::Symbol(driver_path)}));
  if (!mediated.ok()) {
    return mediated.status();
  }
  if (!policy_.allow_page_content_access) {
    Result<core::LabelHandle> no_read = engine->SayFormula(
        self, nal::FormulaNode::Not(
                  nal::FormulaNode::Pred("canReadPages", {nal::Term::Symbol(driver_path)})));
    if (!no_read.ok()) {
      return no_read.status();
    }
  }
  return OkStatus();
}

}  // namespace nexus::services
