#include "net/mesh/quorum.h"

namespace nexus::net::mesh {

namespace {

class ReadyQuorumFuture : public core::VouchFuture {
 public:
  explicit ReadyQuorumFuture(std::vector<bool> answers) : answers_(std::move(answers)) {}
  std::vector<bool> Wait() override { return std::move(answers_); }

 private:
  std::vector<bool> answers_;
};

class PendingQuorumFuture : public core::VouchFuture {
 public:
  explicit PendingQuorumFuture(std::function<std::vector<bool>()> collect)
      : collect_(std::move(collect)) {}
  std::vector<bool> Wait() override { return collect_(); }

 private:
  std::function<std::vector<bool>()> collect_;
};

}  // namespace

QuorumAuthority::QuorumAuthority(Transport* transport, QuorumPolicy policy,
                                 HandlesPredicate handles)
    : transport_(transport), policy_(std::move(policy)), handles_(std::move(handles)) {}

void QuorumAuthority::AddMember(core::Authority* member) {
  members_.push_back(member);
  member_state_.push_back(MemberState{});
}

bool QuorumAuthority::Handles(const nal::Formula& statement) const {
  if (handles_ != nullptr) {
    return handles_(statement);
  }
  for (core::Authority* member : members_) {
    if (member->Handles(statement)) {
      return true;
    }
  }
  return false;
}

void QuorumAuthority::RecordOutcome(size_t member, bool responsive) {
  std::lock_guard<std::mutex> lock(mu_);
  MemberState& state = member_state_[member];
  if (responsive) {
    state.consecutive_failures = 0;
    state.backoff_until_us = 0;
    return;
  }
  ++state.consecutive_failures;
  if (state.consecutive_failures >= policy_.failures_before_backoff) {
    state.backoff_until_us = transport_->now_us() + policy_.backoff_us;
  }
}

std::vector<bool> QuorumAuthority::Tally(
    std::span<const nal::Formula> statements,
    const std::vector<std::pair<size_t, core::VouchOutcome>>& outcomes) {
  size_t count = statements.size();
  std::vector<size_t> yes(count, 0);
  size_t responsive = 0;
  for (const auto& [member, outcome] : outcomes) {
    RecordOutcome(member, outcome.responsive);
    if (!outcome.responsive || outcome.answers.size() != count) {
      continue;
    }
    ++responsive;
    for (size_t i = 0; i < count; ++i) {
      if (outcome.answers[i]) {
        ++yes[i];
      }
    }
  }
  std::vector<bool> verdicts(count, false);
  for (size_t i = 0; i < count; ++i) {
    verdicts[i] = yes[i] >= policy_.quorum;
    if (verdicts[i]) {
      stats_.vouched->Increment();
    } else if (responsive < policy_.quorum) {
      // Not enough LIVE members for K yes-votes to have been possible:
      // the deny's cause is unresponsiveness, not dissent.
      stats_.denied_timeout->Increment();
    } else {
      stats_.denied_no_quorum->Increment();
    }
  }
  return verdicts;
}

std::unique_ptr<core::VouchFuture> QuorumAuthority::VouchBatchAsync(
    std::span<const nal::Formula> statements, uint64_t timeout_us) {
  size_t count = statements.size();
  if (count == 0 || members_.empty()) {
    return std::make_unique<ReadyQuorumFuture>(std::vector<bool>(count, false));
  }
  stats_.statements->Increment(count);
  // Issue phase: EVERY live member's batch goes on the wire before any
  // Wait — the overlap that makes the round cost max-of-K latency.
  std::vector<std::pair<size_t, std::unique_ptr<core::DetailedVouchFuture>>> futures;
  futures.reserve(members_.size());
  uint64_t now = transport_->now_us();
  std::vector<bool> sidelined(members_.size(), false);
  size_t eligible = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < members_.size(); ++i) {
      sidelined[i] = member_state_[i].backoff_until_us > now;
      eligible += sidelined[i] ? 0 : 1;
    }
  }
  // Half-open round: with EVERY member sidelined, skipping them would put
  // nothing on the wire, so the simulated clock that ends their backoff
  // would never advance and every later statement would be denied. Probe
  // them all instead; a responsive answer reinstates the member. (With at
  // least one eligible member the round still moves the clock, and the
  // sidelined ones rejoin when their window passes.)
  bool half_open = eligible == 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (sidelined[i] && !half_open) {
      stats_.members_skipped->Increment();
      continue;  // Sidelined; it rejoins when the window passes.
    }
    stats_.member_rounds->Increment();
    futures.emplace_back(i, members_[i]->VouchBatchAsyncDetailed(statements, timeout_us));
  }
  std::vector<nal::Formula> owned(statements.begin(), statements.end());
  return std::make_unique<PendingQuorumFuture>(
      [this, owned = std::move(owned), futures = std::make_shared<decltype(futures)>(
                                           std::move(futures))]() mutable {
        std::vector<std::pair<size_t, core::VouchOutcome>> outcomes;
        outcomes.reserve(futures->size());
        for (auto& [member, future] : *futures) {
          outcomes.emplace_back(member, future->Wait());
        }
        return Tally(owned, outcomes);
      });
}

std::vector<bool> QuorumAuthority::VouchBatch(std::span<const nal::Formula> statements,
                                              uint64_t timeout_us) {
  return VouchBatchAsync(statements, timeout_us)->Wait();
}

bool QuorumAuthority::VouchesWithin(const nal::Formula& statement, uint64_t timeout_us) {
  return VouchBatch(std::span<const nal::Formula>(&statement, 1), timeout_us)[0];
}

bool QuorumAuthority::Vouches(const nal::Formula& statement) {
  // The guard supplies the deadline on its paths; direct callers get a
  // generous default matched to the simulated fabric.
  return VouchesWithin(statement, /*timeout_us=*/10000);
}

}  // namespace nexus::net::mesh
