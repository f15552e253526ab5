// One booted Nexus world for a benchmark workload: the provider instance
// (plus home instances on a simulated fabric for the federated workload),
// the guarded service the benchmark binds, monitors, files, subjects and
// the tracing wrappers when the run is traced.
#ifndef E2EBENCH_WORLD_H_
#define E2EBENCH_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "apps/federation.h"
#include "common.h"
#include "core/nexus.h"
#include "model.h"
#include "net/transport.h"
#include "services/ddrm.h"
#include "services/read_redactor.h"
#include "tpm/tpm.h"
#include "util/status.h"

namespace e2e {

namespace services = nexus::services;

inline constexpr size_t kCallers = 4;
inline constexpr size_t kBatch = 8;
inline constexpr size_t kFilesPerCaller = 4;
inline constexpr size_t kFileSize = 4096;
inline constexpr size_t kChunk = 256;
inline constexpr size_t kChunks = 64;  // Distinct write payloads per caller.
inline constexpr uint64_t kRedactBegin = 1024;
inline constexpr uint64_t kRedactEnd = 1536;
inline constexpr uint8_t kRedactFill = '#';

// Relative weights of the verbs in a caller's list (per submission).
struct Mix {
  uint32_t authorize = 0;
  uint32_t call = 0;
  uint32_t callmany = 0;
  uint32_t read = 0;
  uint32_t write = 0;
  uint32_t setgoal = 0;
  uint32_t proof = 0;
  uint32_t say = 0;
  uint32_t churn = 0;
  uint32_t intern = 0;
};

struct Spec {
  std::string name;
  size_t subjects = 0;
  size_t objects = 0;
  bool real_subjects = false;  // Processes, or ids with no process record.
  double subject_theta = 0.0;  // Zipf skew over subjects; 0 = uniform.
  uint32_t proofless_one_in = 5;  // Each subject lacks a proof for 1 object in N.
  Mix mix;
  size_t round_ops = 0;         // Submissions per caller per round.
  double rounds_per_second = 1; // Work per run: ceil(this * --seconds) rounds.
  size_t warmup_ops = 0;        // Per caller; no control-plane writes.
  bool sweep = false;           // Warm every (subject, object) pair first.
  bool ddrm = false;            // DDRM monitor on the service port.
  bool files = false;           // Fileserver traffic with the redaction monitor.
  size_t speakers = 0;          // Processes that say labels and intern names.
  // The last quorum_objects objects carry an allow goal with a session-
  // liveness leaf that only a 2-of-3 quorum of home instances (on a
  // simulated fabric, no loss) can vouch for; quorum_per_10k of the
  // authorize submissions go to them, and no other verb does.
  size_t quorum_objects = 0;
  uint32_t quorum_per_10k = 0;
};

Spec SpecByName(const std::string& name, bool* found);

// The benchmark's own guarded service: every request re-enters kernel
// authorization for (caller, op, object), the batch through one
// AuthorizeBatch upcall.
class GuardedService : public nexus::kernel::PortHandler {
 public:
  explicit GuardedService(nexus::kernel::Kernel* kernel) : kernel_(kernel) {}
  nexus::kernel::IpcReply Handle(const nexus::kernel::IpcContext& context,
                                 const nexus::kernel::IpcMessage& message) override;
  void HandleMany(const nexus::kernel::IpcContext& context,
                  std::span<const nexus::kernel::IpcMessage> messages,
                  std::span<nexus::kernel::IpcReply> replies) override;

 private:
  nexus::kernel::Kernel* kernel_;
};

// A caller's files: the client process that opened them, the paths and
// the client's fds.
struct FileClient {
  nexus::kernel::ProcessId pid = 0;
  std::vector<std::string> paths;
  std::vector<uint64_t> fds;
};

struct World {
  // Destruction runs bottom-up: the federation goes before the instances
  // and the fabric it references, the instances before the monitors and
  // wrappers their kernels point at.
  std::unique_ptr<services::DeviceDriverMonitor> ddrm;
  std::unique_ptr<services::ReadRedactionMonitor> redactor;
  std::unique_ptr<GuardedService> service;
  std::unique_ptr<EngineTap> engine_tap;
  std::unique_ptr<InterceptorTap> ddrm_tap;
  std::unique_ptr<InterceptorTap> redactor_tap;
  std::unique_ptr<HandlerTap> service_tap;
  std::unique_ptr<HandlerTap> fs_tap;
  std::unique_ptr<nexus::net::Transport> transport;
  std::vector<std::unique_ptr<nexus::tpm::Tpm>> home_tpms;
  std::vector<std::unique_ptr<nexus::core::Nexus>> homes;
  std::unique_ptr<nexus::tpm::Tpm> tpm;
  std::unique_ptr<nexus::core::Nexus> nexus;
  std::unique_ptr<nexus::apps::PresenceFederation> federation;

  nexus::kernel::OpId read_op = 0;
  nexus::kernel::ProcessId service_pid = 0;
  nexus::kernel::PortId service_port = 0;
  std::vector<nexus::kernel::ObjectId> objects;
  std::vector<nexus::kernel::ProcessId> subjects;
  std::vector<nexus::kernel::ProcessId> speakers;
  std::vector<FileClient> clients;  // One per caller when the spec has files.
  uint64_t redactor_token = 0;      // Kernel::Interpose token of the redaction monitor.
  // The allow goal and the proof that discharges it, per object: local
  // objects need the certifier's label, quorum objects also the liveness
  // leaf.
  struct Policy {
    nexus::nal::Formula allow_goal;
    nexus::nal::FormulaId allow_goal_id = 0;
    nexus::nal::Proof proof;
  };
  Policy local;
  Policy quorum;
  size_t local_objects = 0;  // Objects from this index on use the quorum policy.
  nexus::nal::Formula deny_goal;
  nexus::nal::FormulaId deny_goal_id = 0;

  const Policy& PolicyOf(size_t object) const {
    return object >= local_objects ? quorum : local;
  }
};

// Boots the world for `spec`: instances, service, objects with their
// allow goals, subjects with the proofs `model` says they initially hold,
// monitors, files (initial contents in `file_contents`, caller-major) and,
// when `trace` is set, the forwarding wrappers in every plug point.
nexus::Result<std::unique_ptr<World>> BuildWorld(const Spec& spec, const VerdictModel& model,
                                                 const std::vector<nexus::Bytes>& file_contents,
                                                 bool trace);

}  // namespace e2e

#endif  // E2EBENCH_WORLD_H_
