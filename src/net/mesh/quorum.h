// K-of-N quorum vouching over mesh peers.
//
// A single RemoteAuthority turns "peer unreachable within the deadline"
// into a deny — correct but brittle: one flapping link vetoes every
// authorization it guards. QuorumAuthority replaces the single peer with N
// members (typically RemoteAuthoritys to N mesh nodes holding replicas of
// the dynamic state): a statement is vouched iff at least K members
// responsively vouch it. Denies keep their cause: no_quorum (enough
// members answered, fewer than K said yes) vs timeout (so many members
// were unresponsive that K yes-votes were arithmetically impossible).
//
// Latency: the batch is issued to ALL live members via
// VouchBatchAsyncDetailed BEFORE any Wait, so the round trips overlap on
// the fabric and the consultation costs max-of-K, not sum-of-K — the same
// discipline Guard::CheckBatch applies across authorities, proven on the
// simulated clock by the mesh tests.
//
// Backoff: a member that fails to answer `failures_before_backoff`
// consecutive times is sidelined for `backoff_us` of simulated time —
// queries during the window skip it entirely (no wasted wire traffic, no
// per-query timeout stall on a dead peer). Any responsive answer resets
// the member. When no member is eligible the round is half-open: every
// sidelined member is probed, so an authority whose members all timed out
// once recovers as soon as the links heal instead of denying forever on a
// clock that nothing advances.
#ifndef NEXUS_NET_MESH_QUORUM_H_
#define NEXUS_NET_MESH_QUORUM_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/authority.h"
#include "net/node.h"
#include "util/metrics.h"

namespace nexus::net::mesh {

struct QuorumPolicy {
  size_t quorum = 1;  // K yes-votes required per statement.
  // Consecutive unresponsive rounds before a member is sidelined.
  uint32_t failures_before_backoff = 1;
  // How long (simulated us) a sidelined member is skipped.
  uint64_t backoff_us = 200000;
};

class QuorumAuthority : public core::Authority {
 public:
  using HandlesPredicate = std::function<bool(const nal::Formula&)>;

  struct Stats {
    uint64_t statements = 0;        // Statements decided (batched or not).
    uint64_t vouched = 0;           // Reached quorum.
    uint64_t denied_no_quorum = 0;  // Enough answers, fewer than K yes.
    uint64_t denied_timeout = 0;    // Unresponsive members made K impossible.
    uint64_t member_rounds = 0;     // Per-member batch round trips issued.
    uint64_t members_skipped = 0;   // Sidelined members not consulted.
  };

  // `transport` provides the simulated clock for backoff windows; `handles`
  // scopes which statements this authority routes (nullptr = all).
  QuorumAuthority(Transport* transport, QuorumPolicy policy,
                  HandlesPredicate handles = nullptr);

  // Members are registered at wiring time, before concurrent traffic.
  void AddMember(core::Authority* member);
  size_t member_count() const { return members_.size(); }

  bool Handles(const nal::Formula& statement) const override;
  bool Vouches(const nal::Formula& statement) override;
  bool VouchesWithin(const nal::Formula& statement, uint64_t timeout_us) override;
  std::vector<bool> VouchBatch(std::span<const nal::Formula> statements,
                               uint64_t timeout_us) override;
  // Issues to every live member before any Wait: max-of-K latency.
  std::unique_ptr<core::VouchFuture> VouchBatchAsync(
      std::span<const nal::Formula> statements, uint64_t timeout_us) override;
  bool IsRemote() const override { return true; }

  Stats stats() const {
    return Stats{stats_.statements->Value(),      stats_.vouched->Value(),
                 stats_.denied_no_quorum->Value(), stats_.denied_timeout->Value(),
                 stats_.member_rounds->Value(),    stats_.members_skipped->Value()};
  }

 private:
  struct MemberState {
    uint32_t consecutive_failures = 0;
    uint64_t backoff_until_us = 0;  // Simulated-clock instant; 0 = live.
  };

  // Tally one completed round; returns per-statement verdicts.
  std::vector<bool> Tally(
      std::span<const nal::Formula> statements,
      const std::vector<std::pair<size_t, core::VouchOutcome>>& outcomes);
  void RecordOutcome(size_t member, bool responsive);

  Transport* transport_;
  QuorumPolicy policy_;
  HandlesPredicate handles_;
  std::vector<core::Authority*> members_;

  mutable std::mutex mu_;  // member_state_ (backoff bookkeeping).
  std::vector<MemberState> member_state_;

  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "quorum_authority"};
  struct {
    metrics::Counter* statements;
    metrics::Counter* vouched;
    metrics::Counter* denied_no_quorum;
    metrics::Counter* denied_timeout;
    metrics::Counter* member_rounds;
    metrics::Counter* members_skipped;
  } stats_{metrics_.NewCounter("statements"),       metrics_.NewCounter("vouched"),
           metrics_.NewCounter("denied_no_quorum"), metrics_.NewCounter("denied_timeout"),
           metrics_.NewCounter("member_rounds"),    metrics_.NewCounter("members_skipped")};
};

}  // namespace nexus::net::mesh

#endif  // NEXUS_NET_MESH_QUORUM_H_
