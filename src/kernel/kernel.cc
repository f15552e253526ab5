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

// One provenance event of the IPC pipeline: kCall per completed (or
// monitor-blocked) message, kReplyInterpose per reply-direction chain
// traversal. The latter's PRESENCE is the audited invariant: a completed
// interposed call whose chain lacks it returned a reply the monitors never
// saw. No-op on untraced calls; no cycle read on traced ones (Call is the
// fig7 hot path — latency histograms are fed from Invoke and the miss
// path).
void EmitIpcEvent(const TraceScope& trace, TraceStage stage, ProcessId caller, OpId op,
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
  e.stage = stage;
  FlightRecorder::Global().Emit(e);
}

uint8_t VerdictOf(bool allowed) { return allowed ? kTraceVerdictAllow : kTraceVerdictDeny; }

// CallMany's staging for the general path: the admitted working copies,
// and their caller slots once the batch stops being dense.
struct CallScratch {
  std::vector<IpcMessage> accepted;
  std::vector<size_t> slot_of;
};

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
  IpcReply reply;
  CallMany(caller, port, std::span<const IpcMessage>(&message, 1), std::span<IpcReply>(&reply, 1));
  return reply;
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
  messages = messages.first(n);
  replies = replies.first(n);
  auto count_ok = [&] {
    return static_cast<size_t>(std::count_if(replies.begin(), replies.end(),
                                             [](const IpcReply& r) { return r.status.ok(); }));
  };
  // Reserved-port semantics: a call addressed to a syscall port IS that
  // syscall (SYSCALL_IPCPORT in the real kernel) — pure arithmetic, no
  // table probe. Each message is its own Invoke (liveness check, trace
  // root, syscall-port interposition).
  if (IsSyscallPort(port)) {
    for (size_t i = 0; i < n; ++i) {
      replies[i] = Invoke(caller, SyscallOfPort(port), messages[i]);
    }
    return count_ok();
  }
  calls_->Increment(n);
  // ONE trace scope per crossing, adopted from the surrounding call when
  // nested (interposed hop, ipc_call, file-syscall forward): every
  // per-message event below shares this id, so the auditor sees one chain
  // whose kCall events each have a matching reply-interpose stage.
  TraceScope trace;
  // ONE port snapshot per crossing: the dispatch below runs against it.
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    std::fill(replies.begin(), replies.end(), IpcReply(NotFound("no such port")));
    return 0;
  }
  // Newest interceptor first; composition is simply nesting (§3.2). The
  // chain is snapshotted (memoized per thread) and run with no lock held —
  // or, when no monitor exists anywhere, skipped on one relaxed load.
  InterceptorChain chain = SnapshotInterceptors(port);
  const std::vector<Interceptor*>& active = MonitorsOf(chain);
  IpcContext context{caller, port};
  const uint16_t batched = n > 1 ? kTraceFlagBatched : 0;

  // ONE dispatch of an admitted sub-batch, with no kernel lock held (a
  // concurrent DestroyPort lets it complete against the handler captured
  // in the snapshot). A sub-batch of one takes Handle: HandleMany is N
  // Handles by contract, and one message gains nothing from a server's
  // batch amortization. Then the reply direction per message: the same
  // bounds check whether or not a monitor is present, the interceptor
  // chain in reverse (the innermost monitor sees the handler's reply
  // first — unwinding the nesting the call direction established), and
  // the trace stages.
  auto dispatch = [&](std::span<const IpcMessage> batch, std::span<IpcReply> out) {
    if (snapshot->handler == nullptr) {
      std::fill(out.begin(), out.end(), IpcReply(Unavailable("no handler bound to port")));
    } else if (batch.size() == 1) {
      out[0] = snapshot->handler->Handle(context, batch[0]);
    } else if (!batch.empty()) {
      snapshot->handler->HandleMany(context, batch, out);
    }
    for (size_t j = 0; j < batch.size(); ++j) {
      IpcReply& reply = out[j];
      if (Status bounds = CheckReplyWireBounds(reply); !bounds.ok()) {
        reply = IpcReply(std::move(bounds));
      }
      uint16_t call_flags = batched;
      if (!active.empty()) {
        call_flags |= kTraceFlagInterposed;
        uint16_t reply_flags = call_flags;
        for (auto it = active.rbegin(); it != active.rend(); ++it) {
          if ((*it)->OnReply(context, batch[j], reply) == InterposeVerdict::kDeny) {
            reply = IpcReply(PermissionDenied("reply blocked by reference monitor"));
            reply_flags |= kTraceFlagDenied;
            break;
          }
        }
        EmitIpcEvent(trace, TraceStage::kReplyInterpose, caller, batch[j].op, port,
                     reply_flags, VerdictOf(reply.status.ok()));
      }
      EmitIpcEvent(trace, TraceStage::kCall, caller, batch[j].op, port, call_flags,
                   VerdictOf(reply.status.ok()));
    }
  };

  // Fast path: no monitors, every message typed and in bounds — the
  // caller's span is dispatched as is, zero copies of any kind.
  bool fast = active.empty();
  for (size_t i = 0; fast && i < n; ++i) {
    fast = !messages[i].needs_op_resolution() && CheckWireBounds(messages[i]).ok();
  }
  if (fast) {
    dispatch(messages, replies);
    return count_ok();
  }

  // General path. Per-message admission — wire bounds and forged-id checks
  // first (so a message rejected anyway cannot grow the op table or burn
  // quota), then charged legacy resolution, then the forward interceptor
  // chain — producing the surviving sub-batch. Monitors receive the
  // VALIDATED typed message itself (§5.1): one working copy (refcount
  // bumps, not byte copies), zero marshal round trips, zero strings.
  auto admit = [&](IpcMessage& working) -> Status {
    if (working.needs_op_resolution()) {
      NEXUS_RETURN_IF_ERROR(ResolveLegacy(caller, working));
    }
    for (Interceptor* interceptor : active) {
      if (interceptor->OnCall(context, working) == InterposeVerdict::kDeny) {
        EmitIpcEvent(trace, TraceStage::kCall, caller, working.op, port,
                     kTraceFlagInterposed | kTraceFlagDenied | batched, kTraceVerdictDeny);
        return PermissionDenied("blocked by reference monitor");
      }
    }
    return Status();
  };
  // A batch of one stages its working copy on the stack.
  if (n == 1) {
    IpcMessage working = messages[0];
    Status admitted = CheckWireBounds(working);
    if (admitted.ok()) {
      admitted = admit(working);
    }
    if (admitted.ok()) {
      dispatch(std::span<const IpcMessage>(&working, 1), replies);
    } else {
      replies[0] = IpcReply(std::move(admitted));
    }
    return count_ok();
  }
  // A larger batch stages in thread-local scratch: a fresh allocation per
  // batch shows up as page churn at high rates, while reused capacity is
  // free. The scratch is moved out for the duration of the call (and moved
  // back after), so a handler that reenters CallMany on this thread simply
  // finds empty scratch and allocates its own.
  static thread_local CallScratch call_scratch;
  CallScratch scratch = std::move(call_scratch);
  std::vector<IpcMessage>& accepted = scratch.accepted;
  std::vector<size_t>& slot_of = scratch.slot_of;
  accepted.reserve(n);
  // slot_of stays EMPTY while the batch is dense (accepted[j] came from
  // messages[j] — the overwhelmingly common case); the first rejection
  // backfills the identity prefix and it tracks indices from then on.
  bool dense = true;
  auto reject = [&](size_t i, Status status) {
    if (dense) {
      dense = false;
      slot_of.reserve(n);
      for (size_t k = 0; k < accepted.size(); ++k) {
        slot_of.push_back(k);
      }
    }
    replies[i] = IpcReply(std::move(status));
  };
  for (size_t i = 0; i < n; ++i) {
    if (Status bounded = CheckWireBounds(messages[i]); !bounded.ok()) {
      reject(i, std::move(bounded));
      continue;
    }
    // The working copy is built in place in the sub-batch and discarded
    // from it again if resolution fails or a monitor denies.
    if (Status admitted = admit(accepted.emplace_back(messages[i])); !admitted.ok()) {
      accepted.pop_back();
      reject(i, std::move(admitted));
      continue;
    }
    if (!dense) {
      slot_of.push_back(i);
    }
  }
  if (dense) {
    dispatch(accepted, replies);
  } else {
    // Only a partially-rejected batch pays for a staging vector and a
    // scatter; a dense one writes straight into the caller's replies.
    std::vector<IpcReply> staged(accepted.size());
    dispatch(accepted, staged);
    for (size_t j = 0; j < staged.size(); ++j) {
      replies[slot_of[j]] = std::move(staged[j]);
    }
  }
  accepted.clear();
  slot_of.clear();
  call_scratch = std::move(scratch);
  return count_ok();
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
  // interposition — see CallMany. Single enforcement point.
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
  // (see CallMany): monitors get the validated typed message — no marshal
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
    EmitIpcEvent(trace, TraceStage::kReplyInterpose, caller, working.op, sys_context.port,
                 reply_flags, VerdictOf(reply.status.ok()));
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

namespace {

// One kCacheProbe or kVerdict provenance event for `request`.
void EmitDecisionEvent(const TraceScope& trace, TraceStage stage, const AuthzRequest& request,
                       uint64_t generation, uint16_t flags, uint8_t verdict,
                       uint32_t latency = 0, uint64_t aux = 0) {
  if (!trace.active()) {
    return;
  }
  TraceEvent e;
  e.trace_id = trace.id();
  e.subject = request.subject;
  e.op = request.op;
  e.obj = request.obj;
  e.generation = generation;
  e.aux = aux;
  e.latency = latency;
  e.flags = flags;
  e.verdict = verdict;
  e.stage = stage;
  FlightRecorder::Global().Emit(e);
}

// The misses of one pipeline run, staged for the engine upcall.
struct MissBatch {
  std::vector<AuthzRequest> requests;  // Carrying the trace id.
  std::vector<size_t> slots;           // Each miss's index in the caller's span.
  std::vector<uint64_t> generations;   // Subregion generation before the upcall.
};

}  // namespace

Status Kernel::Authorize(const AuthzRequest& request) {
  Status result;
  AuthorizePipeline(std::span<const AuthzRequest>(&request, 1), std::span<Status>(&result, 1));
  return result;
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
  AuthorizePipeline(requests, results);
  return results;
}

void Kernel::AuthorizePipeline(std::span<const AuthzRequest> requests,
                               std::span<Status> results) {
  const size_t n = requests.size();
  if (engine_ == nullptr) {
    return;  // Authorization disabled (Fig. 4 case "system call").
  }
  authorize_requests_->Increment(n);
  // Adopts the syscall/Call trace id when one is active (the usual case:
  // authorization runs inside an Invoke); at the root it opens its own.
  // One id covers a batch: its items share an evaluation, so their
  // provenance shares a chain.
  TraceScope trace;
  const bool traced = trace.active();
  const bool cache_enabled = decision_cache_enabled_.load();
  auto deny = [&](size_t i, Status reason) {
    authorize_denies_->Increment();
    results[i] = std::move(reason);
  };
  // Misses are staged in thread-local scratch, moved out for the duration
  // of the call (as in CallMany): a designated guard that re-enters
  // Authorize on this thread finds it empty and allocates its own. A
  // cached hit never touches it.
  static thread_local MissBatch miss_scratch;
  std::optional<MissBatch> misses;

  // Phase 1: probe. Runs of identical (subject, op, obj) tuples — a
  // batched server asking the same question per message, the dominant
  // shape — share ONE probe and one verdict: the batch serializes at a
  // single authorization point, so asking again inside it could not
  // observe a different answer. Every run member still emits its own
  // probe and verdict events, carrying the head's generation window.
  auto run_end = [&](size_t head) {
    size_t end = head + 1;
    while (end < n && requests[end] == requests[head]) {
      ++end;
    }
    return end;
  };
  for (size_t head = 0, end = 0; head < n; head = end) {
    end = run_end(head);
    std::optional<bool> cached;
    uint64_t generation = 0;
    if (cache_enabled) {
      cached = decision_cache_.Lookup(requests[head]);
      // The engine upcall runs outside the cache locks, so a concurrent
      // setgoal/setproof can invalidate this tuple's subregion mid-
      // evaluation. A miss snapshots the generation first, and
      // InsertIfUnchanged drops a verdict an invalidation raced, so it is
      // recomputed on the next miss instead of cached past its goal
      // change. A hit pays the extra shard read only when traced: it is
      // valid exactly under the generation the probe observed (Lookup only
      // returns entries stamped with the current gen).
      if (traced || !cached.has_value()) {
        generation = decision_cache_.Generation(requests[head]);
      }
    }
    for (size_t i = head; i < end; ++i) {
      if (cache_enabled) {
        EmitDecisionEvent(trace, TraceStage::kCacheProbe, requests[i], generation,
                          cached.has_value() ? kTraceFlagCacheHit : kTraceFlagCacheMiss,
                          kTraceVerdictNone);
      }
      if (cached.has_value()) {
        EmitDecisionEvent(trace, TraceStage::kVerdict, requests[i], generation,
                          kTraceFlagCacheHit | (*cached ? uint16_t{0} : kTraceFlagDenied),
                          VerdictOf(*cached));
        if (!*cached) {
          deny(i, PermissionDenied("denied (cached guard decision)"));
        }
      }
    }
    if (cached.has_value()) {
      continue;
    }
    if (!misses.has_value()) {
      misses.emplace(std::move(miss_scratch));
    }
    // Stamp the trace id into the request the engine sees, unless the
    // caller supplied one: the guard, designated-guard upcall, and remote
    // authorities tag their events with it. Zero when untraced —
    // downstream stages then skip emission.
    AuthzRequest& stamped = misses->requests.emplace_back(requests[head]);
    if (stamped.trace == 0) {
      stamped.trace = trace.id();
    }
    misses->slots.push_back(head);
    misses->generations.push_back(generation);
  }
  if (!misses.has_value()) {
    return;
  }

  // Phase 2: ONE engine upcall for every miss. Exactly one takes the
  // engine's single-request entry point; more share AuthorizeBatch, which
  // amortizes credential collection and deduplicates authority
  // consultations. The miss crosses the engine (proof check, possibly
  // remote round trips) — microseconds of work, so a cycle read here is
  // free relative to what it measures.
  uint64_t miss_start = traced ? ReadCycleCounter() : 0;
  std::vector<AuthzDecision> batch_decisions;
  AuthzDecision single_decision;
  std::span<const AuthzDecision> decisions;
  if (misses->requests.size() == 1) {
    single_decision = engine_->Authorize(misses->requests.front());
    decisions = std::span<const AuthzDecision>(&single_decision, 1);
  } else {
    batch_decisions = engine_->AuthorizeBatch(misses->requests);
    decisions = batch_decisions;
  }
  uint32_t elapsed = 0;
  if (traced) {
    elapsed = static_cast<uint32_t>(ReadCycleCounter() - miss_start);
    authorize_cycles_->Record(elapsed);
  }
  for (size_t j = 0; j < misses->slots.size(); ++j) {
    const AuthzDecision& decision = decisions[j];
    const size_t head = misses->slots[j];
    if (cache_enabled && decision.cacheable) {
      decision_cache_.InsertIfUnchanged(requests[head], decision.allowed(),
                                        misses->generations[j]);
    }
    // Re-read after the engine returned: together with the probe's stamp
    // this brackets the verdict's validity window [probe gen, this gen] —
    // the auditor's serializability join key. Traced misses only.
    uint64_t verdict_gen =
        traced && cache_enabled ? decision_cache_.Generation(requests[head]) : 0;
    uint16_t flags = static_cast<uint16_t>((cache_enabled ? kTraceFlagCacheMiss : 0) |
                                           (decision.cacheable ? 0 : kTraceFlagUncacheable) |
                                           (decision.allowed() ? 0 : kTraceFlagDenied));
    for (size_t i = head, end = run_end(head); i < end; ++i) {
      EmitDecisionEvent(trace, TraceStage::kVerdict, requests[i], verdict_gen, flags,
                        VerdictOf(decision.allowed()), elapsed,
                        decision.consulted_authorities);
      if (!decision.allowed()) {
        deny(i, decision.deny_reason);
      }
    }
  }
  misses->requests.clear();
  misses->slots.clear();
  misses->generations.clear();
  miss_scratch = std::move(*misses);
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
