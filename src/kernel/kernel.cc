#include "kernel/kernel.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace nexus::kernel {

Kernel::Kernel() : scheduler_(std::make_unique<StrideScheduler>()) {
  // The reserved-port table (kernel/syscall_ports.h) exists from cycle
  // zero: boot-service ports waiting for their ClaimBootPort, and one
  // kernel-owned port per syscall so interposing on a syscall is
  // interposing on a compile-time-constant port id. No registration step,
  // no per-process lazy creation — the layout IS the ABI.
  for (PortId id = kGuardBootPort; id < kFirstDynamicPort; ++id) {
    PortShard& shard = port_shards_[ShardOfId(id)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.ports[id] = Port{id, kKernelProcessId, nullptr, 0};
  }
  for (PortId id = kGuardBootPort; id < kFirstDynamicPort; ++id) {
    procfs_.PublishValue(kKernelProcessId, "/proc/port/" + std::to_string(id) + "/owner",
                         "0");
  }
  procfs_.PublishValue(kKernelProcessId, "/proc/kernel/name", "nexus");
  // The metrics plane exported through the introspection namespace (§3.1):
  // one node per component prefix, plus the flight recorder. Reading
  // telemetry is itself a guarded proc-read — the kProcRead syscall
  // authorizes "read" on "proc:/stats/<component>" like any other path.
  static constexpr const char* kStatComponents[] = {
      "kernel", "cache", "guard", "engine", "remote_authority", "transport", "ddrm",
  };
  for (const char* component : kStatComponents) {
    procfs_.Publish(kKernelProcessId, std::string("/stats/") + component,
                    [component] { return metrics::Registry::Global().RenderText(component); });
  }
  procfs_.Publish(kKernelProcessId, "/stats/trace", [] {
    const FlightRecorder& recorder = FlightRecorder::Global();
    std::string out = "enabled ";
    out += recorder.enabled() ? '1' : '0';
    out += "\nevents_emitted " + std::to_string(recorder.events_emitted());
    out += "\nrings " + std::to_string(recorder.ring_count());
    out += '\n';
    return out;
  });
  procfs_.Publish(kKernelProcessId, "/trace/recent", [] {
    return FormatTraceEvents(FlightRecorder::Global().Recent(64));
  });
}

uint64_t Kernel::NowMicros() const {
  if (time_source_) {
    return time_source_();
  }
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

// ------------------------------------------------------------- Processes

Result<ProcessId> Kernel::CreateProcess(const std::string& name, ByteView binary,
                                        ProcessId parent) {
  Process p;
  p.parent = parent;
  p.name = name;
  p.binary_hash = crypto::Sha256::Hash(binary);
  // The quota root is the topmost non-kernel ancestor: incessantly spawned
  // children are all charged to the tree's root (§2.9). Read it from the
  // parent's shard; a parent killed between this read and the insert below
  // yields a child of a dead parent, exactly as a kill landing just after
  // the spawn would.
  if (parent == kKernelProcessId) {
    p.quota_root = 0;  // Fixed up to the child's own pid below.
  } else {
    const ProcessShard& shard = process_shards_[ShardOfId(parent)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.procs.find(parent);
    if (it == shard.procs.end() || !it->second.alive.load()) {
      return NotFound("parent process not alive");
    }
    p.quota_root = it->second.quota_root;
  }
  ProcessId pid = next_pid_.fetch_add(1);
  p.pid = pid;
  if (parent == kKernelProcessId) {
    p.quota_root = pid;
  }
  PublishProcessNodes(p);
  {
    ProcessShard& shard = process_shards_[ShardOfId(pid)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.procs.emplace(pid, std::move(p));
  }
  lifecycle_generation_.fetch_add(1);
  return pid;
}

void Kernel::PublishProcessNodes(const Process& process) {
  const std::string base = ProcPath(process.pid);
  procfs_.PublishValue(process.pid, base + "/name", process.name);
  procfs_.PublishValue(process.pid, base + "/parent", std::to_string(process.parent));
  procfs_.PublishValue(
      process.pid, base + "/hash",
      HexEncode(ByteView(process.binary_hash.data(), process.binary_hash.size())));
}

Status Kernel::KillProcess(ProcessId pid) {
  {
    ProcessShard& shard = process_shards_[ShardOfId(pid)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.procs.find(pid);
    if (it == shard.procs.end() || !it->second.alive.load()) {
      return NotFound("no such process");
    }
    it->second.alive.store(false);
  }
  procfs_.RemoveOwned(pid);
  // Tear down the process's ports shard by shard, then unlink the dead
  // ports from every remaining channel set.
  std::vector<PortId> dead_ports;
  for (PortShard& shard : port_shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto port_it = shard.ports.begin(); port_it != shard.ports.end();) {
      if (port_it->second.owner == pid) {
        port_epoch_.store(NextEpoch(), std::memory_order_release);
        if (port_it->first < kFirstDynamicPort) {
          // Reserved ids outlive their claimant: revert to an unclaimed
          // kernel-owned slot so the next boot service can reclaim it.
          port_it->second.owner = kKernelProcessId;
          port_it->second.handler = nullptr;
          ++port_it;
          continue;
        }
        dead_ports.push_back(port_it->first);
        port_it = shard.ports.erase(port_it);
      } else {
        ++port_it;
      }
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    channels_.erase(pid);
    for (PortId dead : dead_ports) {
      for (auto& [owner, connected] : channels_) {
        connected.erase(dead);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    scheduler_->RemoveClient(pid);  // Best effort; may not be scheduled.
  }
  lifecycle_generation_.fetch_add(1);
  return OkStatus();
}

Result<const Process*> Kernel::GetProcess(ProcessId pid) const {
  const ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  if (it == shard.procs.end()) {
    return NotFound("no such process");
  }
  // Stable: records are marked dead, never erased, and std::map nodes do
  // not move. Liveness is an atomic; other mutable fields are only touched
  // under the shard writer lock.
  return &it->second;
}

bool Kernel::IsAlive(ProcessId pid) const {
  const ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  return it != shard.procs.end() && it->second.alive.load();
}

Result<ProcessId> Kernel::GetParent(ProcessId pid) const {
  const ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  if (it == shard.procs.end()) {
    return NotFound("no such process");
  }
  return it->second.parent;
}

std::vector<ProcessId> Kernel::Processes() const {
  std::vector<ProcessId> out;
  for (const ProcessShard& shard : process_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [pid, p] : shard.procs) {
      if (p.alive.load()) {
        out.push_back(pid);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Kernel::RestrictSyscalls(ProcessId pid, std::set<Syscall> allowed) {
  ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  if (it == shard.procs.end() || !it->second.alive.load()) {
    return NotFound("no such process");
  }
  // Restriction is monotone: a process can only narrow its own surface.
  if (it->second.allowed_syscalls.has_value()) {
    for (Syscall sc : allowed) {
      if (!it->second.allowed_syscalls->contains(sc)) {
        return PermissionDenied("cannot re-acquire relinquished system calls");
      }
    }
  }
  it->second.allowed_syscalls = std::move(allowed);
  return OkStatus();
}

nal::Principal Kernel::ProcessPrincipal(ProcessId pid) const {
  return KernelPrincipal().Sub("ipd").Sub(std::to_string(pid));
}

std::string Kernel::ProcPath(ProcessId pid) { return "/proc/ipd/" + std::to_string(pid); }

// ----------------------------------------------------------------- Ports

namespace {

// Per-thread snapshot memos: direct-mapped by port id (dynamic ids are
// sequential, so the low bits spread them), keyed by (kernel, port, epoch).
// A slot filled for another kernel or an older epoch simply misses.
constexpr size_t kMemoSlots = 16;

template <typename T>
struct MemoSlot {
  const Kernel* kernel = nullptr;
  PortId port = 0;
  uint64_t epoch = 0;  // Epochs start at 1: an empty slot never matches.
  T value{};

  bool Matches(const Kernel* k, PortId p, uint64_t e) const {
    return kernel == k && port == p && epoch == e;
  }
};

const std::vector<Interceptor*> kNoMonitors;

// A snapshotted chain's monitors, newest first (empty for a null chain).
const std::vector<Interceptor*>& MonitorsOf(
    const std::shared_ptr<const std::vector<Interceptor*>>& chain) {
  return chain != nullptr ? *chain : kNoMonitors;
}

}  // namespace

uint64_t Kernel::NextEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::optional<Kernel::Port> Kernel::SnapshotPort(PortId port) const {
  static thread_local std::array<MemoSlot<std::optional<Port>>, kMemoSlots> memo;
  auto& slot = memo[port % kMemoSlots];
  // Read the epoch BEFORE the table: a write that lands after this load
  // stores a different epoch, so a memo filled from a pre-write table can
  // never validate once that write has returned.
  uint64_t epoch = port_epoch_.load(std::memory_order_acquire);
  if (slot.Matches(this, port, epoch)) {
    return slot.value;
  }
  std::optional<Port> value;
  {
    const PortShard& shard = port_shards_[ShardOfId(port)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.ports.find(port);
    if (it != shard.ports.end()) {
      value = it->second;
    }
  }
  slot = {this, port, epoch, value};
  return value;
}

Result<PortId> Kernel::CreatePort(ProcessId owner) {
  if (owner != kKernelProcessId && !IsAlive(owner)) {
    return NotFound("no such process");
  }
  PortId id = next_port_.fetch_add(1);
  uint64_t generation = lifecycle_generation_.fetch_add(1) + 1;
  const std::string proc_node = "/proc/port/" + std::to_string(id) + "/owner";
  {
    PortShard& shard = port_shards_[ShardOfId(id)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.ports[id] = Port{id, owner, nullptr, generation};
    port_epoch_.store(NextEpoch(), std::memory_order_release);
  }
  procfs_.PublishValue(owner, proc_node, std::to_string(owner));
  // Revalidate AFTER publishing: a KillProcess that raced the liveness
  // check above may have swept the port shards before our insert landed,
  // which would leak a live port owned by a dead process forever. Insert-
  // then-recheck closes the window — either the kill's sweep sees our
  // port, or we see the kill and reap our own debris.
  if (owner != kKernelProcessId && !IsAlive(owner)) {
    {
      PortShard& shard = port_shards_[ShardOfId(id)];
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      shard.ports.erase(id);  // May already be gone (the kill swept it).
      port_epoch_.store(NextEpoch(), std::memory_order_release);
    }
    procfs_.Remove(proc_node);  // Ditto.
    return NotFound("no such process");
  }
  return id;
}

Status Kernel::ClaimBootPort(PortId port, ProcessId owner, PortHandler* handler) {
  if (port == 0 || port >= kFirstDynamicPort) {
    return InvalidArgument("not a reserved boot port");
  }
  if (owner != kKernelProcessId && !IsAlive(owner)) {
    return NotFound("no such process");
  }
  {
    PortShard& shard = port_shards_[ShardOfId(port)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.ports.find(port);
    if (it == shard.ports.end()) {
      return NotFound("no such port");
    }
    if (it->second.owner != kKernelProcessId || it->second.handler != nullptr) {
      return AlreadyExists("boot port already claimed");
    }
    it->second.owner = owner;
    it->second.handler = handler;
    it->second.generation = lifecycle_generation_.fetch_add(1) + 1;
    port_epoch_.store(NextEpoch(), std::memory_order_release);
  }
  procfs_.PublishValue(owner, "/proc/port/" + std::to_string(port) + "/owner",
                       std::to_string(owner));
  return OkStatus();
}

Status Kernel::DestroyPort(PortId port) {
  if (port < kFirstDynamicPort) {
    return PermissionDenied("reserved port cannot be destroyed");
  }
  {
    PortShard& shard = port_shards_[ShardOfId(port)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.ports.erase(port) == 0) {
      return NotFound("no such port");
    }
    port_epoch_.store(NextEpoch(), std::memory_order_release);
  }
  {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    for (auto& [owner, connected] : channels_) {
      connected.erase(port);
    }
  }
  procfs_.Remove("/proc/port/" + std::to_string(port) + "/owner");
  lifecycle_generation_.fetch_add(1);
  return OkStatus();
}

Status Kernel::BindHandler(PortId port, PortHandler* handler) {
  PortShard& shard = port_shards_[ShardOfId(port)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.ports.find(port);
  if (it == shard.ports.end()) {
    return NotFound("no such port");
  }
  it->second.handler = handler;
  port_epoch_.store(NextEpoch(), std::memory_order_release);
  lifecycle_generation_.fetch_add(1);
  return OkStatus();
}

Result<ProcessId> Kernel::PortOwner(PortId port) const {
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    return NotFound("no such port");
  }
  return snapshot->owner;
}

Status Kernel::ConnectPort(ProcessId pid, PortId port) {
  if (!IsAlive(pid) && pid != kKernelProcessId) {
    return NotFound("no such process");
  }
  if (!SnapshotPort(port).has_value()) {
    return NotFound("no such port");
  }
  {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    channels_[pid].insert(port);
  }
  // Revalidate: a DestroyPort/KillProcess racing the existence check above
  // may have swept channels_ before our edge landed, leaving a permanent
  // ghost edge to a nonexistent port (and a phantom path for the IPC
  // analyzer). Either the destroy's sweep sees our edge, or we see the
  // destroy and retract it.
  if (!SnapshotPort(port).has_value()) {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    auto it = channels_.find(pid);
    if (it != channels_.end()) {
      it->second.erase(port);
    }
    return NotFound("no such port");
  }
  return OkStatus();
}

Status Kernel::DisconnectPort(ProcessId pid, PortId port) {
  std::unique_lock<std::shared_mutex> lock(channels_mu_);
  auto it = channels_.find(pid);
  if (it == channels_.end() || it->second.erase(port) == 0) {
    return NotFound("no such channel");
  }
  return OkStatus();
}

bool Kernel::HasChannel(ProcessId pid, PortId port) const {
  std::shared_lock<std::shared_mutex> lock(channels_mu_);
  auto it = channels_.find(pid);
  return it != channels_.end() && it->second.contains(port);
}

Result<uint64_t> Kernel::PortGeneration(PortId port) const {
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    return NotFound("no such port");
  }
  return snapshot->generation;
}

std::map<ProcessId, std::set<PortId>> Kernel::ChannelsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(channels_mu_);
  return channels_;
}

std::vector<PortId> Kernel::Ports() const {
  std::vector<PortId> out;
  for (const PortShard& shard : port_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [id, p] : shard.ports) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------------- IPC

Status Kernel::ResolveLegacy(ProcessId caller, IpcMessage& message) {
  if (!message.needs_op_resolution()) {
    return OkStatus();
  }
  // A FromLegacy message with a never-before-seen operation name: the
  // caller's quota root pays for the intern (satellite of the §2.9 name
  // quotas — op names are caller-influenced on this surface).
  Result<OpId> op = InternOpCharged(caller, message.legacy_op());
  if (!op.ok()) {
    return op.status();
  }
  message.ResolveOp(*op);
  return OkStatus();
}

namespace {

// One kCall provenance event per completed (or monitor-blocked) Call.
// No-op on untraced calls; no cycle read on traced ones (Call is the fig7
// hot path — latency histograms are fed from Invoke and the miss path).
void EmitCallEvent(const TraceScope& trace, ProcessId caller, OpId op, PortId port,
                   uint16_t flags, uint8_t verdict) {
  if (!trace.active()) {
    return;
  }
  TraceEvent e;
  e.trace_id = trace.id();
  e.subject = caller;
  e.op = op;
  e.aux = port;
  e.flags = flags;
  e.verdict = verdict;
  e.stage = TraceStage::kCall;
  FlightRecorder::Global().Emit(e);
}

// One kReplyInterpose event per reply-direction interceptor traversal.
// Its PRESENCE is the audited invariant: a completed interposed call whose
// chain lacks this stage returned a reply the monitors never saw.
void EmitReplyInterposeEvent(const TraceScope& trace, ProcessId caller, OpId op,
                             PortId port, uint16_t flags, uint8_t verdict) {
  if (!trace.active()) {
    return;
  }
  TraceEvent e;
  e.trace_id = trace.id();
  e.subject = caller;
  e.op = op;
  e.aux = port;
  e.flags = flags;
  e.verdict = verdict;
  e.stage = TraceStage::kReplyInterpose;
  FlightRecorder::Global().Emit(e);
}

// Records elapsed cycles into a histogram across every return path of the
// enclosing function. Pass nullptr to measure nothing (untraced calls pay
// no rdtsc).
class ScopedCycleHistogram {
 public:
  explicit ScopedCycleHistogram(metrics::Histogram* histogram)
      : histogram_(histogram), start_(histogram != nullptr ? ReadCycleCounter() : 0) {}
  ~ScopedCycleHistogram() {
    if (histogram_ != nullptr) {
      histogram_->Record(ReadCycleCounter() - start_);
    }
  }
  ScopedCycleHistogram(const ScopedCycleHistogram&) = delete;
  ScopedCycleHistogram& operator=(const ScopedCycleHistogram&) = delete;

 private:
  metrics::Histogram* histogram_;
  uint64_t start_;
};

}  // namespace

IpcReply Kernel::Call(ProcessId caller, PortId port, const IpcMessage& message) {
  // Reserved-port semantics: a call addressed to a syscall port IS that
  // syscall (SYSCALL_IPCPORT in the real kernel) — pure arithmetic, no
  // table probe, and ipc_call reaching a syscall port dispatches like the
  // syscall it names.
  if (IsSyscallPort(port)) {
    return Invoke(caller, SyscallOfPort(port), message);
  }
  calls_->Increment();
  // A nested Call (interposed hop, ipc_call, file-syscall forward) adopts
  // the surrounding trace id, so one logical operation is one trace.
  TraceScope trace;
  // ONE port snapshot per call: the dispatch below runs against it.
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    return IpcReply(NotFound("no such port"));
  }

  // Wire bounds and forged-id checks hold on BOTH paths below — whether a
  // message is accepted never depends on a monitor being present — and run
  // BEFORE any charged legacy resolution, so a message that would be
  // rejected anyway cannot grow the op table or burn quota.
  Status bounded = CheckWireBounds(message);
  if (!bounded.ok()) {
    return IpcReply(bounded);
  }

  // Legacy op names resolve (charged) once, up front, so every path below
  // dispatches an interned id and the hot path stays string-free.
  const IpcMessage* source = &message;
  IpcMessage resolved;
  if (message.needs_op_resolution()) {
    resolved = message;
    Status legacy = ResolveLegacy(caller, resolved);
    if (!legacy.ok()) {
      return IpcReply(legacy);
    }
    source = &resolved;
  }

  // Newest interceptor first; composition is simply nesting (§3.2). The
  // chain is snapshotted (memoized per thread) and run with no lock held —
  // or, when no monitor exists anywhere, skipped on one relaxed load.
  InterceptorChain chain = SnapshotInterceptors(port);

  if (chain == nullptr) {
    // No monitor on this port: dispatch by reference, untouched. The reply
    // bounds check matches the interposed path below, so whether a
    // server's reply is accepted never depends on a monitor being present.
    IpcReply reply = Dispatch(caller, *snapshot, *source);
    if (Status reply_bounds = CheckReplyWireBounds(reply); !reply_bounds.ok()) {
      reply = IpcReply(std::move(reply_bounds));
    }
    EmitCallEvent(trace, caller, source->op, port, 0,
                  reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
    return reply;
  }

  // Structural interposition (§5.1): monitors receive the VALIDATED typed
  // message itself — one copy, zero marshal/unmarshal round trips, zero
  // strings — and pattern-match / rewrite slots in place. The wire codec
  // still exists for buffers that genuinely cross an address space (the
  // net layer, user-space monitor simulations); in-kernel chains get the
  // same bounds guarantees from Validate{Reply,}WireBounds alone.
  const std::vector<Interceptor*>& active = *chain;
  IpcMessage working = *source;
  IpcContext context{caller, port};
  for (Interceptor* interceptor : active) {
    if (interceptor->OnCall(context, working) == InterposeVerdict::kDeny) {
      // A blocked call returns earlier than a completed call (Table 1).
      EmitCallEvent(trace, caller, working.op, port,
                    kTraceFlagInterposed | kTraceFlagDenied, kTraceVerdictDeny);
      return IpcReply(PermissionDenied("blocked by reference monitor"));
    }
  }

  IpcReply reply = Dispatch(caller, *snapshot, working);
  if (Status reply_bounds = CheckReplyWireBounds(reply); !reply_bounds.ok()) {
    reply = IpcReply(std::move(reply_bounds));
  }

  // Reply direction, reverse order (innermost monitor sees the handler's
  // reply first — unwinding the nesting the call direction established).
  uint16_t reply_flags = kTraceFlagInterposed;
  for (auto it = active.rbegin(); it != active.rend(); ++it) {
    if ((*it)->OnReply(context, working, reply) == InterposeVerdict::kDeny) {
      reply = IpcReply(PermissionDenied("reply blocked by reference monitor"));
      reply_flags |= kTraceFlagDenied;
      break;
    }
  }
  EmitReplyInterposeEvent(trace, caller, working.op, port, reply_flags,
                          reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
  EmitCallEvent(trace, caller, working.op, port, kTraceFlagInterposed,
                reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
  return reply;
}

IpcReply Kernel::Dispatch(ProcessId caller, const Port& port, const IpcMessage& message) {
  if (port.handler == nullptr) {
    return IpcReply(Unavailable("no handler bound to port"));
  }
  // The handler runs with no kernel lock held. A concurrent DestroyPort
  // lets this in-flight call complete against the handler captured at
  // entry (the snapshot carries the port generation for callers that care).
  IpcContext context{caller, port.id};
  return port.handler->Handle(context, message);
}

Kernel::InterceptorChain Kernel::SnapshotInterceptors(PortId port) const {
  if (!interposition_enabled_.load(std::memory_order_relaxed) ||
      interpose_count_.load(std::memory_order_acquire) == 0) {
    return nullptr;
  }
  static thread_local std::array<MemoSlot<InterceptorChain>, kMemoSlots> memo;
  auto& slot = memo[port % kMemoSlots];
  // Epoch before chain, as in SnapshotPort.
  uint64_t epoch = interpose_epoch_.load(std::memory_order_acquire);
  if (slot.Matches(this, port, epoch)) {
    return slot.value;
  }
  std::vector<Interceptor*> active;
  {
    std::shared_lock<std::shared_mutex> lock(interpose_mu_);
    for (auto it = interpositions_.rbegin(); it != interpositions_.rend(); ++it) {
      if (it->port == port) {
        active.push_back(it->interceptor);
      }
    }
  }
  InterceptorChain chain;
  if (!active.empty()) {
    chain = std::make_shared<const std::vector<Interceptor*>>(std::move(active));
  }
  slot = {this, port, epoch, chain};
  return chain;
}

size_t Kernel::CallMany(ProcessId caller, PortId port, std::span<const IpcMessage> messages,
                        std::span<IpcReply> replies) {
  const size_t n = std::min(messages.size(), replies.size());
  if (n == 0) {
    return 0;
  }
  // ONE trace scope for the batch: every per-message event below shares
  // this id, so the auditor sees one chain whose kCall events each have a
  // matching reply-interpose stage — the invariant is per-message even
  // though the crossing is per-batch.
  TraceScope trace;
  size_t ok = 0;
  if (IsSyscallPort(port)) {
    // Syscalls keep their per-message dispatch (liveness check, syscall
    // trace event, per-call interposition) under the shared trace scope.
    for (size_t i = 0; i < n; ++i) {
      replies[i] = Invoke(caller, SyscallOfPort(port), messages[i]);
      ok += replies[i].status.ok() ? 1 : 0;
    }
    return ok;
  }
  calls_->Increment(n);
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    for (size_t i = 0; i < n; ++i) {
      replies[i] = IpcReply(NotFound("no such port"));
    }
    return 0;
  }
  InterceptorChain chain = SnapshotInterceptors(port);
  const std::vector<Interceptor*>& active = MonitorsOf(chain);
  IpcContext context{caller, port};

  // Fast path: no monitors, every message typed and in bounds — the
  // original span goes straight to the server's HandleMany, zero copies
  // of any kind.
  bool fast = active.empty();
  for (size_t i = 0; fast && i < n; ++i) {
    fast = !messages[i].needs_op_resolution() && CheckWireBounds(messages[i]).ok();
  }
  if (fast) {
    if (snapshot->handler == nullptr) {
      for (size_t i = 0; i < n; ++i) {
        replies[i] = IpcReply(Unavailable("no handler bound to port"));
      }
      return 0;
    }
    snapshot->handler->HandleMany(context, messages.first(n), replies.first(n));
    for (size_t i = 0; i < n; ++i) {
      if (Status bounds = CheckReplyWireBounds(replies[i]); !bounds.ok()) {
        replies[i] = IpcReply(std::move(bounds));
      }
      EmitCallEvent(trace, caller, messages[i].op, port, kTraceFlagBatched,
                    replies[i].status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
      ok += replies[i].status.ok() ? 1 : 0;
    }
    return ok;
  }

  // General path. Per-message admission — wire bounds, charged legacy
  // resolution, the forward interceptor chain — producing the surviving
  // sub-batch; working copies cost refcount bumps, not byte copies. The
  // staging vectors are thread-local scratch: a 256-message batch of
  // IpcMessages is big enough that a fresh allocation per batch shows up
  // as page churn at high rates, while reused capacity is free. The
  // scratch is moved out for the duration of the call (and moved back
  // after), so a handler that reenters CallMany on this thread simply
  // finds empty scratch and allocates its own.
  static thread_local std::vector<IpcMessage> accepted_scratch;
  static thread_local std::vector<size_t> slot_scratch;
  std::vector<IpcMessage> accepted = std::move(accepted_scratch);
  std::vector<size_t> slot_of = std::move(slot_scratch);
  accepted.clear();
  slot_of.clear();
  accepted.reserve(n);
  // slot_of stays EMPTY while the batch is dense (accepted[j] came from
  // messages[j] — the overwhelmingly common case); the first rejection
  // backfills the identity prefix and it tracks indices from then on.
  bool dense = true;
  auto note_rejection = [&] {
    if (dense) {
      dense = false;
      slot_of.reserve(n);
      for (size_t k = 0; k < accepted.size(); ++k) {
        slot_of.push_back(k);
      }
    }
  };
  for (size_t i = 0; i < n; ++i) {
    Status bounded = CheckWireBounds(messages[i]);
    if (!bounded.ok()) {
      note_rejection();
      replies[i] = IpcReply(std::move(bounded));
      continue;
    }
    // The working copy is built in place in the sub-batch (one copy, not
    // copy-then-move) and discarded from it again if a monitor denies.
    accepted.push_back(messages[i]);
    IpcMessage& working = accepted.back();
    if (working.needs_op_resolution()) {
      if (Status legacy = ResolveLegacy(caller, working); !legacy.ok()) {
        accepted.pop_back();
        note_rejection();
        replies[i] = IpcReply(std::move(legacy));
        continue;
      }
    }
    bool denied = false;
    for (Interceptor* interceptor : active) {
      if (interceptor->OnCall(context, working) == InterposeVerdict::kDeny) {
        EmitCallEvent(trace, caller, working.op, port,
                      kTraceFlagInterposed | kTraceFlagDenied | kTraceFlagBatched,
                      kTraceVerdictDeny);
        replies[i] = IpcReply(PermissionDenied("blocked by reference monitor"));
        denied = true;
        break;
      }
    }
    if (denied) {
      accepted.pop_back();
      note_rejection();
      continue;
    }
    if (!dense) {
      slot_of.push_back(i);
    }
  }

  // ONE dispatch for the surviving sub-batch. In the dense case (every
  // message admitted — the overwhelmingly common one) the handler writes
  // straight into the caller's reply span; only a partially-denied batch
  // pays for a staging vector and a scatter.
  std::vector<IpcReply> staged(dense ? 0 : accepted.size());
  std::span<IpcReply> batch_replies =
      dense ? replies.first(n) : std::span<IpcReply>(staged);
  if (!accepted.empty()) {
    if (snapshot->handler == nullptr) {
      for (IpcReply& reply : batch_replies) {
        reply = IpcReply(Unavailable("no handler bound to port"));
      }
    } else {
      snapshot->handler->HandleMany(context, std::span<const IpcMessage>(accepted),
                                    batch_replies);
    }
  }

  // Reply direction per message: bounds, reverse interceptor chain, and
  // the same trace stages a single interposed Call emits.
  for (size_t j = 0; j < accepted.size(); ++j) {
    IpcReply& reply = batch_replies[j];
    if (Status bounds = CheckReplyWireBounds(reply); !bounds.ok()) {
      reply = IpcReply(std::move(bounds));
    }
    uint16_t call_flags = kTraceFlagBatched;
    if (!active.empty()) {
      call_flags |= kTraceFlagInterposed;
      uint16_t reply_flags = kTraceFlagInterposed | kTraceFlagBatched;
      for (auto it = active.rbegin(); it != active.rend(); ++it) {
        if ((*it)->OnReply(context, accepted[j], reply) == InterposeVerdict::kDeny) {
          reply = IpcReply(PermissionDenied("reply blocked by reference monitor"));
          reply_flags |= kTraceFlagDenied;
          break;
        }
      }
      EmitReplyInterposeEvent(trace, caller, accepted[j].op, port, reply_flags,
                              reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
    }
    EmitCallEvent(trace, caller, accepted[j].op, port, call_flags,
                  reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
    if (!dense) {
      replies[slot_of[j]] = std::move(reply);
    }
  }
  accepted.clear();
  slot_of.clear();
  accepted_scratch = std::move(accepted);
  slot_scratch = std::move(slot_of);
  for (size_t i = 0; i < n; ++i) {
    ok += replies[i].status.ok() ? 1 : 0;
  }
  return ok;
}

// ---------------------------------------------------------- Interposition

Result<uint64_t> Kernel::Interpose(ProcessId monitor, PortId port, Interceptor* interceptor) {
  if (!SnapshotPort(port).has_value()) {
    return NotFound("no such port");
  }
  if (interceptor == nullptr) {
    return InvalidArgument("null interceptor");
  }
  // Interposition is itself a guarded operation: consent is expressed by a
  // goal formula on the port (§3.2). The op id is hoisted; the object name
  // is caller-influenced, so it interns through the charged surface.
  static const OpId interpose_op = InternOp("interpose");
  Result<ObjectId> object = InternObjectCharged(monitor, "port:" + std::to_string(port));
  if (!object.ok()) {
    return object.status();
  }
  Status authorized = Authorize(AuthzRequest{monitor, interpose_op, *object});
  if (!authorized.ok()) {
    return authorized;
  }
  uint64_t token = next_interpose_token_.fetch_add(1);
  std::unique_lock<std::shared_mutex> lock(interpose_mu_);
  interpositions_.push_back(Interposition{token, port, monitor, interceptor});
  interpose_epoch_.store(NextEpoch(), std::memory_order_release);
  // Release publish: the uninterposed fast path reads this count with
  // acquire and skips the interpose_mu_ shared lock entirely when zero.
  interpose_count_.store(interpositions_.size(), std::memory_order_release);
  return token;
}

Status Kernel::RemoveInterposition(uint64_t token) {
  std::unique_lock<std::shared_mutex> lock(interpose_mu_);
  for (auto it = interpositions_.begin(); it != interpositions_.end(); ++it) {
    if (it->token == token) {
      interpositions_.erase(it);
      interpose_epoch_.store(NextEpoch(), std::memory_order_release);
      interpose_count_.store(interpositions_.size(), std::memory_order_release);
      return OkStatus();
    }
  }
  return NotFound("no such interposition");
}

// -------------------------------------------------------------- Syscalls

IpcReply Kernel::Invoke(ProcessId caller, Syscall call, const IpcMessage& message) {
  syscalls_->Increment();
  // Root of the provenance chain for a traced syscall: every nested stage
  // (interposition hop, authorization, fileserver Call) adopts this id.
  TraceScope trace;
  // Full dispatch latency, traced invocations only (covers every return).
  ScopedCycleHistogram timer(trace.active() ? call_cycles_ : nullptr);
  ProcessId parent = kKernelProcessId;
  {
    const ProcessShard& shard = process_shards_[ShardOfId(caller)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto proc_it = shard.procs.find(caller);
    if (proc_it == shard.procs.end() || !proc_it->second.alive.load()) {
      return IpcReply(NotFound("no such process"));
    }
    const Process& proc = proc_it->second;
    if (proc.allowed_syscalls.has_value() && !proc.allowed_syscalls->contains(call)) {
      return IpcReply(PermissionDenied("system call relinquished"));
    }
    parent = proc.parent;
  }

  IpcMessage working = message;
  // The syscall's own name overrides whatever the caller wrote in the op
  // field — including a pending legacy name, which is simply dropped (the
  // inner operation of ipc_call is an ARGUMENT, handled below).
  working.ResolveOp(SyscallOp(call));
  // Wire bounds (incl. slot overflow and forged ids) hold with or without
  // interposition — see Call. Single enforcement point.
  Status bounded = CheckWireBounds(working);
  if (!bounded.ok()) {
    return IpcReply(bounded);
  }
  if (trace.active()) {
    TraceEvent e;
    e.trace_id = trace.id();
    e.subject = caller;
    e.op = working.op;
    e.aux = static_cast<uint64_t>(call);
    e.stage = TraceStage::kSyscall;
    FlightRecorder::Global().Emit(e);
  }
  // The syscall channel's interceptor chain, structural in both directions
  // (see Call): monitors get the validated typed message — no marshal
  // round trip, no strings built, hashed, or re-parsed here (§5.1). The
  // channel is the syscall's RESERVED port (one per Syscall, shared by all
  // processes) — its id is a compile-time constant, so attaching costs no
  // lookup and the uninterposed path takes no lock at all.
  IpcContext sys_context{caller, SyscallIpcPort(call)};
  InterceptorChain chain = SnapshotInterceptors(sys_context.port);
  const std::vector<Interceptor*>& active = MonitorsOf(chain);
  for (Interceptor* interceptor : active) {
    if (interceptor->OnCall(sys_context, working) == InterposeVerdict::kDeny) {
      return IpcReply(PermissionDenied("blocked by reference monitor"));
    }
  }

  IpcReply reply = InvokeDispatch(caller, call, parent, working);

  if (!active.empty()) {
    uint16_t reply_flags = kTraceFlagInterposed;
    for (auto it = active.rbegin(); it != active.rend(); ++it) {
      if ((*it)->OnReply(sys_context, working, reply) == InterposeVerdict::kDeny) {
        reply = IpcReply(PermissionDenied("reply blocked by reference monitor"));
        reply_flags |= kTraceFlagDenied;
        break;
      }
    }
    EmitReplyInterposeEvent(trace, caller, working.op, sys_context.port, reply_flags,
                            reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny);
  }
  return reply;
}

// The post-interposition syscall dispatch, split out so Invoke can run the
// reply-direction interceptor chain over whatever any handler returns.
// Dispatch is a direct index into a compile-time handler table — the table
// mirrors the reserved-port layout, so "which port" and "which handler" are
// the same arithmetic and there is no map, no lock, and no branch chain.
IpcReply Kernel::InvokeDispatch(ProcessId caller, Syscall call, ProcessId parent,
                                IpcMessage& working) {
  static constexpr std::array<SyscallHandler, kSyscallCount> kSyscallTable = {
      &Kernel::SysNull,          // kNull
      &Kernel::SysGetPpid,       // kGetPpid
      &Kernel::SysGetTimeOfDay,  // kGetTimeOfDay
      &Kernel::SysYield,         // kYield
      &Kernel::SysFileForward,   // kOpen
      &Kernel::SysFileForward,   // kClose
      &Kernel::SysFileForward,   // kRead
      &Kernel::SysFileForward,   // kWrite
      &Kernel::SysControl,       // kSay
      &Kernel::SysControl,       // kSetGoal
      &Kernel::SysControl,       // kSetProof
      &Kernel::SysControl,       // kInterpose
      &Kernel::SysIpcCall,       // kIpcCall
      &Kernel::SysProcRead,      // kProcRead
  };
  static_assert(kSyscallTable.size() == kSyscallCount,
                "every syscall needs a handler table entry");
  const auto index = static_cast<size_t>(call);
  if (index >= kSyscallTable.size()) {
    return IpcReply(Internal("unhandled syscall"));
  }
  return (this->*kSyscallTable[index])(caller, parent, working);
}

IpcReply Kernel::SysNull(ProcessId, ProcessId, IpcMessage&) { return IpcReply::Ok(); }

IpcReply Kernel::SysGetPpid(ProcessId, ProcessId parent, IpcMessage&) {
  return IpcReply::Ok().AddU64(parent);
}

IpcReply Kernel::SysGetTimeOfDay(ProcessId, ProcessId, IpcMessage&) {
  return IpcReply::Ok().AddU64(NowMicros());
}

IpcReply Kernel::SysYield(ProcessId caller, ProcessId, IpcMessage&) {
  std::unique_lock<std::mutex> lock(sched_mu_);
  Result<ProcessId> next = scheduler_->Tick();
  lock.unlock();
  return IpcReply::Ok().AddU64(next.ok() ? *next : caller);
}

IpcReply Kernel::SysFileForward(ProcessId caller, ProcessId, IpcMessage& working) {
  PortId fs_port = fs_port_.load();
  if (fs_port == 0) {
    return IpcReply(Unavailable("no filesystem server"));
  }
  // Client-server microkernel architecture: the file operation is one
  // more IPC hop to the user-level server (Table 1's 2-3x). The op is
  // already the hoisted syscall id; no string is built for the hop.
  return Call(caller, fs_port, working);
}

IpcReply Kernel::SysControl(ProcessId, ProcessId, IpcMessage&) {
  // Control operations are handled by the core layer (which owns label
  // and goal stores); reaching the raw kernel is a wiring error.
  return IpcReply(Unavailable("control syscall not wired to an authorization engine"));
}

IpcReply Kernel::SysProcRead(ProcessId caller, ProcessId, IpcMessage& working) {
  // Paths are inherently text; everything derived from one is memoized.
  Result<std::string_view> path = working.ArgString(0);
  if (!path.ok()) {
    return IpcReply(InvalidArgument("proc_read needs a path"));
  }
  // Interned fast path: the op id is hoisted once, and the
  // "proc:<path>" object id is built exactly once per novel path —
  // repeat reads find it in the memo with no concatenation. The memo
  // miss interns through the charged surface (a process probing
  // endless novel proc paths exhausts its own name quota, not the
  // table).
  static const OpId read_op = InternOp("read");
  Result<ObjectId> object = ProcObjectFor(caller, *path);
  if (!object.ok()) {
    return IpcReply(object.status());
  }
  Status authorized = Authorize(AuthzRequest{caller, read_op, *object});
  if (!authorized.ok()) {
    return IpcReply(authorized);
  }
  Result<std::string> value = procfs_.Read(*path);
  if (!value.ok()) {
    return IpcReply(value.status());
  }
  return IpcReply::Ok().AddString(*value);
}

IpcReply Kernel::SysIpcCall(ProcessId caller, ProcessId, IpcMessage& working) {
  if (working.args.empty()) {
    return IpcReply(InvalidArgument("ipc_call needs a port"));
  }
  // args[0] is caller-controlled: a kPort/kU64 slot, or legacy decimal
  // text (decoded at the single validated point in the accessor —
  // garbage or a 100-digit number is InvalidArgument, never a throw).
  Result<PortId> port = working.ArgPort(0);
  if (!port.ok()) {
    return IpcReply(InvalidArgument("ipc_call: port must be a port id"));
  }
  IpcMessage inner;
  if (working.args.size() > 1) {
    // args[1] names the inner operation: typed callers pass the
    // interned id (validated at unmarshal); script-style callers pass
    // text, which resolves through the caller-charged op quota inside
    // the nested Call.
    ArgSlot op_slot = working.args[1];
    if (op_slot.tag() == ArgTag::kString) {
      inner = IpcMessage::FromLegacy(op_slot.text());
    } else if (op_slot.tag() == ArgTag::kU64) {
      if (!IsKnownOpId(op_slot.scalar())) {
        return IpcReply(InvalidArgument("ipc_call: unknown op id"));
      }
      inner.op = static_cast<OpId>(op_slot.scalar());
    } else {
      return IpcReply(InvalidArgument("ipc_call: operation must be an op id or text"));
    }
    // Tail() aliases the outer arena for payload slots — the inner
    // message forwards the caller's bytes by reference, not by copy.
    inner.args = working.args.Tail(2);
  }
  inner.data = std::move(working.data);
  return Call(caller, *port, inner);
}

// ---------------------------------------------------------- Authorization

Status Kernel::Authorize(const AuthzRequest& request) {
  if (engine_ == nullptr) {
    return OkStatus();  // Authorization disabled (Fig. 4 case "system call").
  }
  authorize_requests_->Increment();
  // Adopts the syscall/Call trace id when one is active (the usual case:
  // Authorize runs inside an Invoke); at the root it opens its own trace.
  TraceScope trace;
  bool cache_enabled = decision_cache_enabled_.load();
  if (cache_enabled) {
    std::optional<bool> cached = decision_cache_.Lookup(request);
    // The extra Generation() shard lock is paid only on traced calls.
    uint64_t probe_gen = trace.active() ? decision_cache_.Generation(request) : 0;
    if (trace.active()) {
      TraceEvent probe;
      probe.trace_id = trace.id();
      probe.subject = request.subject;
      probe.op = request.op;
      probe.obj = request.obj;
      probe.generation = probe_gen;
      probe.flags = cached.has_value() ? kTraceFlagCacheHit : kTraceFlagCacheMiss;
      probe.stage = TraceStage::kCacheProbe;
      FlightRecorder::Global().Emit(probe);
    }
    if (cached.has_value()) {
      if (!*cached) {
        authorize_denies_->Increment();
      }
      if (trace.active()) {
        TraceEvent verdict;
        verdict.trace_id = trace.id();
        verdict.subject = request.subject;
        verdict.op = request.op;
        verdict.obj = request.obj;
        // A hit is valid exactly under the generation the probe observed
        // (Lookup only returns entries stamped with the current gen).
        verdict.generation = probe_gen;
        verdict.flags =
            kTraceFlagCacheHit | (*cached ? uint16_t{0} : kTraceFlagDenied);
        verdict.verdict = *cached ? kTraceVerdictAllow : kTraceVerdictDeny;
        verdict.stage = TraceStage::kVerdict;
        FlightRecorder::Global().Emit(verdict);
      }
      return *cached ? OkStatus()
                     : PermissionDenied("denied (cached guard decision)");
    }
  }
  // The engine upcall runs outside the cache locks, so a concurrent
  // setgoal/setproof can invalidate this tuple's subregion mid-evaluation.
  // Snapshot the subregion generation first; InsertIfUnchanged drops the
  // verdict if an invalidation raced it, so a stale decision is recomputed
  // on the next miss instead of cached past its goal change.
  uint64_t generation = cache_enabled ? decision_cache_.Generation(request) : 0;
  // The miss is about to cross the engine (proof check, possibly remote
  // round trips) — microseconds of work, so a cycle read here is free
  // relative to what it measures.
  uint64_t miss_start = trace.active() ? ReadCycleCounter() : 0;
  // Stamp the trace id into the request the engine sees: the guard,
  // designated-guard upcall, and remote authorities tag their events with
  // it. Zero when untraced — downstream stages then skip emission.
  AuthzRequest stamped = request;
  if (stamped.trace == 0) {
    stamped.trace = trace.id();
  }
  AuthzDecision decision = engine_->Authorize(stamped);
  if (cache_enabled && decision.cacheable) {
    decision_cache_.InsertIfUnchanged(request, decision.allowed(), generation);
  }
  if (!decision.allowed()) {
    authorize_denies_->Increment();
  }
  if (trace.active()) {
    uint32_t elapsed = static_cast<uint32_t>(ReadCycleCounter() - miss_start);
    authorize_cycles_->Record(elapsed);
    TraceEvent verdict;
    verdict.trace_id = trace.id();
    verdict.subject = request.subject;
    verdict.op = request.op;
    verdict.obj = request.obj;
    verdict.latency = elapsed;
    // Re-read after the engine returned: together with the probe's stamp
    // this brackets the verdict's validity window [probe gen, this gen] —
    // the auditor's serializability join key. Traced misses only.
    verdict.generation = cache_enabled ? decision_cache_.Generation(request) : 0;
    verdict.flags = static_cast<uint16_t>(
        (cache_enabled ? kTraceFlagCacheMiss : 0) |
        (decision.cacheable ? 0 : kTraceFlagUncacheable) |
        (decision.allowed() ? 0 : kTraceFlagDenied));
    verdict.aux = decision.consulted_authorities;
    verdict.verdict = decision.allowed() ? kTraceVerdictAllow : kTraceVerdictDeny;
    verdict.stage = TraceStage::kVerdict;
    FlightRecorder::Global().Emit(verdict);
  }
  return decision.ToStatus();
}

Status Kernel::Authorize(ProcessId subject, std::string_view operation,
                         std::string_view object) {
  // The untrusted string surface: BOTH names are caller-influenced here,
  // so each is charged to the subject's quota root before it can grow its
  // intern table.
  Result<OpId> op = InternOpCharged(subject, operation);
  if (!op.ok()) {
    return op.status();
  }
  Result<ObjectId> obj = InternObjectCharged(subject, object);
  if (!obj.ok()) {
    return obj.status();
  }
  return Authorize(AuthzRequest{subject, *op, *obj});
}

std::vector<Status> Kernel::AuthorizeBatch(std::span<const AuthzRequest> requests) {
  std::vector<Status> results(requests.size());
  if (engine_ == nullptr) {
    return results;  // Value-initialized Status is OK.
  }
  authorize_requests_->Increment(requests.size());
  // One trace id covers the whole batch: the point of batching is that the
  // items share an evaluation, so their provenance shares a chain.
  TraceScope trace;
  bool cache_enabled = decision_cache_enabled_.load();
  std::vector<AuthzRequest> misses;
  std::vector<size_t> miss_slots;
  std::vector<uint64_t> miss_generations;
  // Runs of identical (subject, op, obj) tuples — a batched server asking
  // the same question per message, the dominant shape — share ONE probe
  // and one verdict: the batch serializes at a single authorization point
  // by design (see the trace-id comment above), so asking again inside it
  // could not observe a different answer. `run_head` is the first index
  // of the current run; later members copy its result at the end.
  std::vector<std::pair<size_t, size_t>> dups;  // (slot, run head slot)
  dups.reserve(requests.size());
  size_t run_head = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) {
      const AuthzRequest& prev = requests[i - 1];
      if (requests[i].subject == prev.subject && requests[i].op == prev.op &&
          requests[i].obj == prev.obj) {
        dups.emplace_back(i, run_head);
        continue;
      }
      run_head = i;
    }
    if (cache_enabled) {
      std::optional<bool> cached = decision_cache_.Lookup(requests[i]);
      if (cached.has_value()) {
        if (!*cached) {
          authorize_denies_->Increment();
        }
        results[i] =
            *cached ? OkStatus() : PermissionDenied("denied (cached guard decision)");
        continue;
      }
    }
    misses.push_back(requests[i]);
    misses.back().trace = trace.id();  // 0 when untraced; see Authorize.
    miss_slots.push_back(i);
    // Snapshot before the engine upcall: see Authorize for the stale-insert
    // race this closes.
    miss_generations.push_back(cache_enabled ? decision_cache_.Generation(requests[i]) : 0);
  }
  if (!misses.empty()) {
    std::vector<AuthzDecision> decisions = engine_->AuthorizeBatch(misses);
    for (size_t j = 0; j < misses.size(); ++j) {
      if (cache_enabled && decisions[j].cacheable) {
        decision_cache_.InsertIfUnchanged(misses[j], decisions[j].allowed(),
                                          miss_generations[j]);
      }
      if (!decisions[j].allowed()) {
        authorize_denies_->Increment();
      }
      results[miss_slots[j]] = decisions[j].ToStatus();
    }
  }
  // Run members copy their head's result (heads resolve before any dup
  // that references them — dups only point backward). Deny accounting
  // stays per-request, matching the serial path. An allowed head needs no
  // copy at all: the results vector value-initializes to OK.
  for (const auto& [slot, head] : dups) {
    if (!results[head].ok()) {
      authorize_denies_->Increment();
      results[slot] = results[head];
    }
  }
  return results;
}

namespace {

// Shared §2.9 charge path for both name tables: a genuinely novel name is
// charged to `root`; a root at its cap is denied with a reason BEFORE the
// table can grow. Caller holds the quota mutex.
Result<uint32_t> InternChargedLocked(NameTable& table, std::string_view name,
                                     std::string_view what, ProcessId root, size_t cap,
                                     std::unordered_map<ProcessId, size_t>& charges) {
  size_t& charged = charges[root];
  if (charged >= cap) {
    return ResourceExhausted(std::string(what) + " name quota exhausted for quota root " +
                             std::to_string(root) + " (" + std::to_string(cap) +
                             " novel names); denied before interning \"" +
                             std::string(name) + "\"");
  }
  bool created = false;
  uint32_t id = table.Intern(name, &created);
  if (created) {
    ++charged;
  }
  return id;
}

}  // namespace

ProcessId Kernel::QuotaRootOf(ProcessId subject) const {
  const ProcessShard& shard = process_shards_[ShardOfId(subject)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(subject);
  return it != shard.procs.end() ? it->second.quota_root : subject;
}

Result<ObjectId> Kernel::InternObjectCharged(ProcessId subject, std::string_view object) {
  // Length-bounded like the op side: the quota caps the COUNT of novel
  // names, so without a size bound each charge could pin arbitrary memory
  // in the immortal append-only table. The bound is the wire's per-slot
  // payload cap plus headroom for server-added prefixes ("file:", "proc:",
  // "port:<id>") — a maximum-length path the wire accepts must intern.
  if (object.size() > kMaxObjectNameLen) {
    return InvalidArgument("object name too long");
  }
  size_t cap = object_name_quota_.load();
  if (cap == 0) {
    return InternObject(object);  // Quotas disabled.
  }
  // Already-interned names cost nothing: the common case (every repeat
  // authorization of a known object) takes one striped Find probe and
  // never touches the quota lock.
  std::optional<ObjectId> existing = FindObject(object);
  if (existing.has_value()) {
    return *existing;
  }
  ProcessId root = QuotaRootOf(subject);
  // Charging serializes on one mutex, but only for genuinely novel names —
  // a workload that stays inside its working set never lands here.
  std::lock_guard<std::mutex> lock(name_quota_mu_);
  return InternChargedLocked(ObjectTable(), object, "object", root, cap,
                             object_names_charged_);
}

Result<OpId> Kernel::InternOpCharged(ProcessId subject, std::string_view operation) {
  // Length-bounded on every untrusted surface (FromLegacy resolution, the
  // Authorize string shim, the guard port's text form): operation names
  // are a tiny vocabulary, and an unbounded one would let each quota
  // charge pin arbitrary memory in the append-only table.
  if (operation.size() > kMaxLegacyOpName) {
    return InvalidArgument("operation name too long");
  }
  size_t cap = op_name_quota_.load();
  if (cap == 0) {
    return InternOp(operation);  // Quotas disabled.
  }
  std::optional<OpId> existing = FindOp(operation);
  if (existing.has_value()) {
    return *existing;  // The entire legitimate op vocabulary lands here.
  }
  ProcessId root = QuotaRootOf(subject);
  std::lock_guard<std::mutex> lock(name_quota_mu_);
  return InternChargedLocked(OpTable(), operation, "operation", root, cap,
                             op_names_charged_);
}

Result<OpId> Kernel::ResolveOpArg(ProcessId caller, const IpcMessage& message, size_t i) {
  if (message.ArgIsString(i)) {
    return InternOpCharged(caller, *message.ArgString(i));
  }
  Result<uint64_t> op = message.ArgU64(i);
  if (!op.ok()) {
    return op.status();
  }
  // Same forged-id rule as every other untrusted carrier: a 64-bit value
  // that names no interned operation must not silently truncate onto one.
  if (!IsKnownOpId(*op)) {
    return InvalidArgument("argument slot " + std::to_string(i) + " is not a known op id");
  }
  return static_cast<OpId>(*op);
}

Result<ObjectId> Kernel::ResolveObjectArg(ProcessId caller, const IpcMessage& message,
                                          size_t i) {
  if (message.ArgIsString(i)) {
    return InternObjectCharged(caller, *message.ArgString(i));
  }
  return message.ArgObject(i);
}

Result<ObjectId> Kernel::ProcObjectFor(ProcessId caller, std::string_view path) {
  {
    std::shared_lock<std::shared_mutex> lock(proc_memo_mu_);
    auto it = proc_object_memo_.find(path);
    if (it != proc_object_memo_.end()) {
      return it->second;  // Memoized: no concatenation, no intern probe.
    }
  }
  // First sight of this path: build "proc:<path>" once and intern it
  // through the charged surface. Quota denials are NOT memoized — a root
  // whose budget frees up (quota raised at runtime) must be able to retry.
  Result<ObjectId> object = InternObjectCharged(caller, "proc:" + std::string(path));
  if (object.ok()) {
    std::unique_lock<std::shared_mutex> lock(proc_memo_mu_);
    proc_object_memo_.emplace(std::string(path), *object);
  }
  return object;
}

void Kernel::OnProofUpdate(const AuthzRequest& request, uint64_t* post_gen) {
  decision_cache_.InvalidateEntry(request, post_gen);
  if (invalidation_sink_) {
    invalidation_sink_(request.op, request.obj);
  }
}

void Kernel::OnGoalUpdate(OpId op, ObjectId obj, std::vector<uint64_t>* post_gens) {
  decision_cache_.InvalidateSubregion(op, obj, post_gens);
  if (invalidation_sink_) {
    invalidation_sink_(op, obj);
  }
}

void Kernel::ReplaceScheduler(std::unique_ptr<Scheduler> scheduler) {
  std::lock_guard<std::mutex> lock(sched_mu_);
  scheduler_ = std::move(scheduler);
}

}  // namespace nexus::kernel
