// The Nexus kernel simulator.
//
// A single-address-space model of the Nexus microkernel: isolated protection
// domains (IPDs) with subprincipal names, kernel-bound IPC ports,
// interposition on every system call (§3.2), an authorization hook with the
// in-kernel decision cache (§2.8), the introspection namespace (§3.1), and
// a pluggable CPU scheduler. The authorization engine itself (labelstores,
// goalstores, guards) lives one layer up in src/core and plugs in through
// the AuthorizationEngine interface, mirroring the kernel/guard split in
// the paper's Figure 1.
#ifndef NEXUS_KERNEL_KERNEL_H_
#define NEXUS_KERNEL_KERNEL_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "kernel/decision_cache.h"
#include "kernel/ipc.h"
#include "kernel/procfs.h"
#include "kernel/sched.h"
#include "kernel/syscall_ports.h"
#include "kernel/trace.h"
#include "kernel/types.h"
#include "nal/term.h"
#include "util/metrics.h"
#include "util/status.h"

namespace nexus::kernel {

// Longest object name the charged intern surface accepts: the wire's
// per-slot payload cap plus headroom for the prefixes resource servers
// prepend to caller paths ("file:", "proc:", "port:<id>").
inline constexpr size_t kMaxObjectNameLen = kMaxArgPayload + 64;

// Verdict from an IPC interceptor (§3.2): the reference monitor may inspect
// and modify the message, then allow or block the call.
enum class InterposeVerdict : uint8_t { kAllow, kDeny };

class Interceptor {
 public:
  virtual ~Interceptor() = default;
  // Called before the target handler. May modify `message`.
  virtual InterposeVerdict OnCall(const IpcContext& context, IpcMessage& message) = 0;
  // Called after the handler returns (only if the call was allowed), with
  // the request the handler actually saw — interposition is structural on
  // BOTH directions: a monitor pattern-matches the typed reply slots and
  // rewrites them in place (ArgVec::SetScalar to clamp a u64 or redact an
  // id, reassign reply.data for payloads) with zero reparsing and zero
  // heap strings. kDeny suppresses the reply: the caller sees
  // PermissionDenied instead of the handler's result.
  virtual InterposeVerdict OnReply(const IpcContext& context, const IpcMessage& request,
                                   IpcReply& reply) {
    (void)context;
    (void)request;
    (void)reply;
    return InterposeVerdict::kAllow;
  }
};

// The upcall interface to the guard layer (implemented in src/core). The
// kernel consults it only on decision-cache misses. Requests and decisions
// are the interned AuthzRequest/AuthzDecision types from kernel/types.h.
class AuthorizationEngine {
 public:
  virtual ~AuthorizationEngine() = default;
  virtual AuthzDecision Authorize(const AuthzRequest& request) = 0;
  // Batched evaluation: implementations may amortize credential collection
  // and deduplicate authority consultations across the batch. The default
  // is the serial loop.
  virtual std::vector<AuthzDecision> AuthorizeBatch(std::span<const AuthzRequest> requests) {
    std::vector<AuthzDecision> decisions;
    decisions.reserve(requests.size());
    for (const AuthzRequest& request : requests) {
      decisions.push_back(Authorize(request));
    }
    return decisions;
  }
};

struct Process {
  ProcessId pid = 0;
  ProcessId parent = kKernelProcessId;
  std::string name;
  crypto::Sha256Digest binary_hash{};
  // Liveness flips concurrently with lock-free readers holding a Process*
  // (process records are never erased, so the pointer itself stays valid).
  std::atomic<bool> alive{true};
  // If set, only these system calls may be invoked (a process can
  // relinquish syscalls, as Fauxbook's web server does after init, §4.1).
  // Mutated only under the owning table shard's writer lock.
  std::optional<std::set<Syscall>> allowed_syscalls;
  // Quota root: the ancestor charged for guard-cache quotas (§2.9).
  // Immutable after creation.
  ProcessId quota_root = kKernelProcessId;

  Process() = default;
  Process(Process&& other) noexcept
      : pid(other.pid),
        parent(other.parent),
        name(std::move(other.name)),
        binary_hash(other.binary_hash),
        alive(other.alive.load()),
        allowed_syscalls(std::move(other.allowed_syscalls)),
        quota_root(other.quota_root) {}
};

// Threading (see README "Threading model" for the full contract): the
// kernel is CONCURRENT on every surface an authorization miss can touch.
//
//  - Authorize/AuthorizeBatch are the worker-thread frontend (sharded
//    decision cache + generation-checked inserts, as in PR 3), and the
//    engine behind them is now read-write split and per-subject striped,
//    so independent misses overlap end to end.
//  - The process and port tables are SHARDED under reader-writer locks:
//    lookups (GetProcess, IsAlive, PortOwner, dispatch snapshots) take one
//    shard's reader side; spawn/kill/port-create/destroy take the writer
//    side of the affected shard. Lifecycle mutations therefore run WHILE
//    workers miss — the PR-3 "lifecycle must quiesce the frontend" rule is
//    gone. `lifecycle_generation()` stamps every mutation; a lookup
//    bracketed by equal generations observed a stable table.
//  - Call/Invoke/Interpose snapshot the port/interposition state and run
//    handlers with no kernel lock held. A warm snapshot takes no lock at
//    all: every port write and every interposition write stores a fresh
//    epoch (drawn from a process-wide counter) inside its writer critical
//    section, and each thread memoizes its last snapshots keyed by
//    (kernel, port, epoch), validated by one acquire load. A port
//    destroyed mid-call completes its in-flight dispatch against the
//    handler captured at entry (the owner frees handler memory only after
//    in-flight calls drain — unchanged from the single-threaded contract).
//  - procfs and the channel graph carry their own internal locks.
//
// Still single-threaded by contract: wiring (set_engine, set_fs_port,
// ReplaceScheduler, Resize on the decision cache) happens at boot, and the
// Scheduler object itself is externally serialized (the kernel wraps its
// own calls in a mutex; direct scheduler() users stay on one thread).
class Kernel {
 public:
  Kernel();

  // ----------------------------------------------------------- Processes
  // Creates an IPD. `binary` is measured (SHA-256 launch-time hash).
  Result<ProcessId> CreateProcess(const std::string& name, ByteView binary,
                                  ProcessId parent = kKernelProcessId);
  Status KillProcess(ProcessId pid);
  Result<const Process*> GetProcess(ProcessId pid) const;
  bool IsAlive(ProcessId pid) const;
  Result<ProcessId> GetParent(ProcessId pid) const;
  std::vector<ProcessId> Processes() const;
  Status RestrictSyscalls(ProcessId pid, std::set<Syscall> allowed);

  // Bumped on every process/port lifecycle mutation (create, kill, port
  // create/destroy/bind). Concurrent readers can stamp a lookup with the
  // surrounding generations to detect whether lifecycle churn overlapped
  // it — the generation-stamped-lookup analogue of the decision cache's
  // epoch counters.
  uint64_t lifecycle_generation() const { return lifecycle_generation_.load(); }

  // The NAL principal for a process: Nexus.ipd.<pid> (the paper writes
  // /proc/ipd/<pid>; both name the same subprincipal of the kernel).
  nal::Principal KernelPrincipal() const { return nal::Principal(kernel_principal_name_); }
  nal::Principal ProcessPrincipal(ProcessId pid) const;
  // The /proc path alias for a process principal ("/proc/ipd/12").
  static std::string ProcPath(ProcessId pid);

  // --------------------------------------------------------------- Ports
  // Dynamic ports only — ids start at kFirstDynamicPort; everything below
  // is the reserved table in kernel/syscall_ports.h, pre-registered by the
  // constructor.
  Result<PortId> CreatePort(ProcessId owner);
  // Takes ownership of a reserved boot port (kGuardBootPort /
  // kAuthorityBootPort / kFsBootPort) and binds its handler — the boot
  // sequence's fixed-address service registration. Rejects non-boot ids
  // and double claims.
  Status ClaimBootPort(PortId port, ProcessId owner, PortHandler* handler);
  Status DestroyPort(PortId port);
  Status BindHandler(PortId port, PortHandler* handler);
  Result<ProcessId> PortOwner(PortId port) const;
  // Connecting establishes an IPC channel (an edge in the connectivity
  // graph the IPCAnalyzer inspects, §2.2).
  Status ConnectPort(ProcessId pid, PortId port);
  Status DisconnectPort(ProcessId pid, PortId port);
  bool HasChannel(ProcessId pid, PortId port) const;
  // Snapshot of the whole channel graph (IPCAnalyzer's view).
  std::map<ProcessId, std::set<PortId>> ChannelsSnapshot() const;
  std::vector<PortId> Ports() const;
  // The lifecycle_generation() value stamped when `port` was created: a
  // port id observed with a different stamp than before was destroyed and
  // is a different port, even mid-churn.
  Result<uint64_t> PortGeneration(PortId port) const;

  // IPC submission: N messages for ONE port in a single boundary crossing,
  // through the kernel's one admission pipeline — syscall-port arithmetic
  // (a call addressed to a reserved syscall port IS that syscall, the real
  // kernel's SYSCALL_IPCPORT semantics, and routes through Invoke), one
  // trace scope, one port snapshot, one interceptor-chain snapshot, wire
  // bounds, charged legacy resolution, the forward chain, ONE dispatch of
  // the surviving sub-batch (Handle for one message, HandleMany for more —
  // servers amortize authorization across a batch via AuthorizeBatch),
  // reply bounds, and the reverse chain. The chain runs PER MESSAGE, so
  // every interposition invariant the auditor checks holds for batches
  // exactly as for singles. Safe from worker threads (a miss may upcall a
  // designated guard or an authority port mid-evaluation). `messages` and
  // `replies` must be the same length; returns the number of OK replies.
  size_t CallMany(ProcessId caller, PortId port, std::span<const IpcMessage> messages,
                  std::span<IpcReply> replies);
  // A batch of one.
  IpcReply Call(ProcessId caller, PortId port, const IpcMessage& message);

  // -------------------------------------------------------- Interposition
  // Installs an interceptor on a port. Subject to authorization (operation
  // "interpose" on object "port:<id>"). Interceptors compose: the newest
  // runs first. Returns a token for removal.
  Result<uint64_t> Interpose(ProcessId monitor, PortId port, Interceptor* interceptor);
  Status RemoveInterposition(uint64_t token);
  // Global switch: when disabled, calls skip the interceptor chains
  // entirely ("Nexus bare" in Table 1).
  void set_interposition_enabled(bool enabled) { interposition_enabled_.store(enabled); }
  bool interposition_enabled() const { return interposition_enabled_.load(); }

  // ------------------------------------------------------------- Syscalls
  // The Table-1 system call surface. File operations forward over IPC to
  // the handler bound on `fs_port` (a user-level server).
  IpcReply Invoke(ProcessId caller, Syscall call, const IpcMessage& message);
  void set_fs_port(PortId port) { fs_port_.store(port); }
  PortId fs_port() const { return fs_port_.load(); }
  // Syscall interposition (§3.2) attaches to the RESERVED port of the
  // syscall — SyscallIpcPort(call) in kernel/syscall_ports.h, a
  // compile-time constant. The per-process map+mutex this replaced is
  // gone: Invoke computes its interposition port with pure arithmetic.

  // --------------------------------------------------------- Authorization
  void set_engine(AuthorizationEngine* engine) { engine_ = engine; }
  AuthorizationEngine* engine() const { return engine_; }
  void set_decision_cache_enabled(bool enabled) { decision_cache_enabled_.store(enabled); }
  bool decision_cache_enabled() const { return decision_cache_enabled_.load(); }
  DecisionCache& decision_cache() { return decision_cache_; }

  // The guarded-operation fast path: decision cache, then guard upcall.
  // The interned form is the hot path; the string form interns and
  // forwards. It MUST intern (not Find): unknown names still reach the
  // pluggable engine, whose policy for them is its own (a deny-all engine
  // denies names nobody ever registered). Growth through this untrusted
  // surface is BOUNDED: BOTH names interned here are charged to the
  // subject's quota root — objects against `object_name_quota()`, ops
  // against `op_name_quota()` — and a root past its cap is denied
  // outright (§2.9 applied to the name tables) — a workload probing with
  // endless novel names can no longer grow either table for the process
  // lifetime.
  //
  // Authorize and AuthorizeBatch are the kernel's CONCURRENT frontend and
  // one pipeline: cache hits are answered inline (a lock-free seqlock read,
  // no allocation), runs of identical tuples share one probe, and the
  // misses cross the engine in ONE upcall (AuthorizeBatch deduplicates
  // authority consultations) and insert with a generation check, so a
  // verdict that raced a setgoal/setproof invalidation is dropped, not
  // cached stale. Traced calls emit a kCacheProbe and a kVerdict per
  // request. Process/port lifecycle and Call/Invoke are concurrent-safe
  // too — see the class comment.
  Status Authorize(const AuthzRequest& request);  // A batch of one.
  Status Authorize(ProcessId subject, std::string_view operation, std::string_view object);
  std::vector<Status> AuthorizeBatch(std::span<const AuthzRequest> requests);

  // Interns an object name on behalf of `subject`, charging the subject's
  // quota root for genuinely novel names. Over-quota roots get
  // ResourceExhausted-flavored PermissionDenied instead of table growth.
  // Trusted resource servers (the file server, the procfs syscall) route
  // their caller-supplied names through this too.
  Result<ObjectId> InternObjectCharged(ProcessId subject, std::string_view object);
  // Per-quota-root cap on novel object names interned via untrusted
  // surfaces. 0 = unlimited. Boot-time configuration.
  void set_object_name_quota(size_t cap) { object_name_quota_.store(cap); }
  size_t object_name_quota() const { return object_name_quota_.load(); }

  // The op-table mirror of InternObjectCharged: operation names are also
  // caller-influenced (the Authorize string shim, IpcMessage::FromLegacy
  // messages arriving over Call/Invoke/ipc_call), so novel ones are
  // charged to the subject's quota root and denied with a reason past
  // `op_name_quota()`. Names past kMaxLegacyOpName are rejected. The
  // legitimate op vocabulary is tiny and interned by servers at startup,
  // so a charge here almost always means probing.
  Result<OpId> InternOpCharged(ProcessId subject, std::string_view operation);
  void set_op_name_quota(size_t cap) { op_name_quota_.store(cap); }
  size_t op_name_quota() const { return op_name_quota_.load(); }

  // The one untrusted-text policy for v1-compatible port handlers, in one
  // place: slot `i` as an op/object — typed ids pass through, legacy text
  // NAMES intern through the charged surfaces above (billed to `caller`).
  Result<OpId> ResolveOpArg(ProcessId caller, const IpcMessage& message, size_t i);
  Result<ObjectId> ResolveObjectArg(ProcessId caller, const IpcMessage& message, size_t i);

  // Invalidation entry points, called by the core layer when proofs or
  // goals change (§2.8). The optional out-params surface the exact
  // post-bump decision-cache generations (see DecisionCache::Invalidate*);
  // the engine stamps mutation-log records with them.
  void OnProofUpdate(const AuthzRequest& request, uint64_t* post_gen = nullptr);
  void OnProofUpdate(ProcessId subject, std::string_view operation, std::string_view object) {
    OnProofUpdate(AuthzRequest::Of(subject, operation, object));
  }
  void OnGoalUpdate(OpId op, ObjectId obj, std::vector<uint64_t>* post_gens = nullptr);
  void OnGoalUpdate(std::string_view operation, std::string_view object) {
    OnGoalUpdate(InternOp(operation), InternObject(object));
  }

  // Cluster fan-out hook (src/net/mesh): invoked AFTER a local goal/proof
  // mutation bumped this kernel's decision cache, with the (op, obj) pair
  // whose subregion was retired — the mesh layer broadcasts an epoch-
  // stamped invalidation to peers so THEIR cached verdicts retire too.
  // Install during boot wiring, before concurrent traffic; the sink runs
  // on the mutating thread with no kernel locks held and must not call
  // back into OnGoalUpdate/OnProofUpdate (the mesh applies remote
  // invalidations straight to the cache for exactly that reason).
  using InvalidationSink = std::function<void(OpId op, ObjectId obj)>;
  void set_invalidation_sink(InvalidationSink sink) { invalidation_sink_ = std::move(sink); }

  // ----------------------------------------------------------- Services
  IntrospectionFs& procfs() { return procfs_; }
  const IntrospectionFs& procfs() const { return procfs_; }
  // Introspection for the proc-read object memo ("proc:<path>" ids are
  // built once per novel path, then served from here with no string
  // concatenation — the procfs mirror of the file server's fd memo).
  size_t ProcObjectMemoSize() const {
    std::shared_lock<std::shared_mutex> lock(proc_memo_mu_);
    return proc_object_memo_.size();
  }
  Scheduler& scheduler() { return *scheduler_; }
  void ReplaceScheduler(std::unique_ptr<Scheduler> scheduler);

  // Microsecond clock; overridable for deterministic tests.
  uint64_t NowMicros() const;
  void set_time_source(std::function<uint64_t()> source) { time_source_ = std::move(source); }

 private:
  struct Port {
    PortId id = 0;
    ProcessId owner = kKernelProcessId;
    PortHandler* handler = nullptr;
    // lifecycle_generation() value when the port was created; dispatch
    // snapshots carry it so a call can tell it raced a destroy/recreate.
    uint64_t generation = 0;
  };
  struct Interposition {
    uint64_t token = 0;
    PortId port = 0;
    ProcessId monitor = kKernelProcessId;
    Interceptor* interceptor = nullptr;
  };

  // Table sharding: same Mix64 as the decision cache, so a subject whose
  // cache lookups scale also scales its process-record reads.
  static constexpr size_t kTableShards = 8;
  struct ProcessShard {
    mutable std::shared_mutex mu;
    // std::map: node stability lets GetProcess hand out long-lived
    // pointers (records are marked dead, never erased).
    std::map<ProcessId, Process> procs;
  };
  struct PortShard {
    mutable std::shared_mutex mu;
    std::unordered_map<PortId, Port> ports;
  };
  static size_t ShardOfId(uint64_t id) { return Mix64(id) % kTableShards; }

  // A port's newest-first interceptor chain; null when no monitor is
  // installed on it. Immutable once built, so a reentrant Call on the same
  // thread that refreshes the memo cannot pull it out from under a caller.
  using InterceptorChain = std::shared_ptr<const std::vector<Interceptor*>>;

  // Snapshot of one port; nullopt if absent. Served from the calling
  // thread's memo while port_epoch_ is unchanged, else read under the
  // shard's reader lock.
  std::optional<Port> SnapshotPort(PortId port) const;

  // The chain for `port`, from the thread's memo while interpose_epoch_ is
  // unchanged, else snapshotted under the reader lock — or not at all: the
  // interpose_count_ fast path makes the no-monitors case one relaxed
  // load, no lock, no allocation.
  InterceptorChain SnapshotInterceptors(PortId port) const;

  // A fresh epoch value for a writer critical section. Process-wide, so a
  // Kernel rebuilt at a recycled address never matches a memo entry the
  // old one left behind.
  static uint64_t NextEpoch();

  // The authorization pipeline behind Authorize and AuthorizeBatch.
  // `results` arrives all OK; the pipeline writes each denial.
  void AuthorizePipeline(std::span<const AuthzRequest> requests, std::span<Status> results);
  // The post-interposition syscall dispatch — split from Invoke so the
  // reply-direction interceptor chain runs over every branch's result.
  // Direct-indexed: kSyscallTable[call] is a member-function pointer, the
  // in-kernel analogue of the reserved-port array dispatch.
  IpcReply InvokeDispatch(ProcessId caller, Syscall call, ProcessId parent,
                          IpcMessage& working);

  // One handler per syscall, direct-indexed by the enumerator. The table
  // is static_assert-sized against kSyscallCount in kernel.cc.
  using SyscallHandler = IpcReply (Kernel::*)(ProcessId caller, ProcessId parent,
                                              IpcMessage& working);
  IpcReply SysNull(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysGetPpid(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysGetTimeOfDay(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysYield(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysFileForward(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysControl(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysIpcCall(ProcessId caller, ProcessId parent, IpcMessage& working);
  IpcReply SysProcRead(ProcessId caller, ProcessId parent, IpcMessage& working);
  void PublishProcessNodes(const Process& process);

  // The kernel boundary for legacy messages: resolves a pending FromLegacy
  // operation name through the caller-charged op quota and rejects slot
  // overflow. `message` is mutated in place (callers pass their working
  // copy). No-op for typed messages — the hot path never pays.
  Status ResolveLegacy(ProcessId caller, IpcMessage& message);
  // The memoized "proc:<path>" object id (interning charged to `caller`
  // on first sight of the path).
  Result<ObjectId> ProcObjectFor(ProcessId caller, std::string_view path);
  // The §2.9 ancestor charged for `subject`'s name-table growth.
  ProcessId QuotaRootOf(ProcessId subject) const;

  std::string kernel_principal_name_ = "Nexus";
  ProcessShard process_shards_[kTableShards];
  PortShard port_shards_[kTableShards];

  // The channel graph, under its own reader-writer lock.
  mutable std::shared_mutex channels_mu_;
  std::map<ProcessId, std::set<PortId>> channels_;

  // Interposition list: read on every interposed Call/Invoke, written only
  // by Interpose/RemoveInterposition. `interpose_count_` shadows its size
  // so the bare hot path skips the reader lock entirely when no monitor
  // is installed anywhere.
  mutable std::shared_mutex interpose_mu_;
  std::vector<Interposition> interpositions_;
  std::atomic<size_t> interpose_count_{0};

  // Snapshot-memo epochs (see the class comment): port_epoch_ changes with
  // every port-table write, interpose_epoch_ with every interposition
  // write, each stored inside the writer's critical section.
  std::atomic<uint64_t> port_epoch_{NextEpoch()};
  std::atomic<uint64_t> interpose_epoch_{NextEpoch()};

  // Serializes the kernel's own scheduler calls (kill, yield).
  std::mutex sched_mu_;

  std::atomic<ProcessId> next_pid_{1};
  std::atomic<PortId> next_port_{kFirstDynamicPort};
  std::atomic<uint64_t> next_interpose_token_{1};
  std::atomic<uint64_t> lifecycle_generation_{1};
  std::atomic<bool> interposition_enabled_{true};

  AuthorizationEngine* engine_ = nullptr;
  std::atomic<bool> decision_cache_enabled_{true};
  DecisionCache decision_cache_;
  InvalidationSink invalidation_sink_;  // Boot-wired; see set_invalidation_sink.

  // §2.9 name quotas for the untrusted intern surfaces. The op vocabulary
  // is orders of magnitude smaller than the object space, so its default
  // cap is too.
  std::atomic<size_t> object_name_quota_{65536};
  std::atomic<size_t> op_name_quota_{4096};
  std::mutex name_quota_mu_;
  std::unordered_map<ProcessId, size_t> object_names_charged_;
  std::unordered_map<ProcessId, size_t> op_names_charged_;

  // proc-read path -> interned "proc:<path>" ObjectId (satellite of the
  // interned-fast-path arc: the last remaining per-call string build).
  mutable std::shared_mutex proc_memo_mu_;
  std::unordered_map<std::string, ObjectId, TransparentStringHash, TransparentStringEq>
      proc_object_memo_;

  IntrospectionFs procfs_;
  std::unique_ptr<Scheduler> scheduler_;
  std::atomic<PortId> fs_port_{0};
  std::function<uint64_t()> time_source_;

  // Metrics plane ("kernel.*"): hot-path counters are always-on
  // per-thread-cell increments; the latency histograms record only on
  // traced calls (the flight recorder's toggle gates the expensive part of
  // observability).
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "kernel"};
  metrics::Counter* calls_ = metrics_.NewCounter("calls");
  metrics::Counter* syscalls_ = metrics_.NewCounter("syscalls");
  metrics::Counter* authorize_requests_ = metrics_.NewCounter("authorize_requests");
  metrics::Counter* authorize_denies_ = metrics_.NewCounter("authorize_denies");
  metrics::Histogram* authorize_cycles_ = metrics_.NewHistogram("authorize_cycles");
  metrics::Histogram* call_cycles_ = metrics_.NewHistogram("call_cycles");
};

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_KERNEL_H_
