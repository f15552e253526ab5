// The benchmark's own verdict model, independent of the program under
// test. It knows only what the benchmark installed — which subject holds
// a proof for which object and which goal each object carries — and the
// order of the benchmark's own writes.
//
// Writes on one object come from one caller (objects are partitioned
// among the callers), so they are serialized. Every write is bracketed
// by an epoch: odd while the write is in flight, even once it returned.
// Because each caller's operation list is generated before the run, the
// full state history of every object is known in advance: state k is the
// state after the object's k-th write. A verdict read with epochs
// (e1, e2) around the call may equal the verdict of any state between
// e1/2 and (e2+1)/2 — a single state when no write overlapped, the old or
// the new one when one did (a serial order of the benchmark's writes
// that explains the answer must exist).
#ifndef E2EBENCH_MODEL_H_
#define E2EBENCH_MODEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace e2e {

class VerdictModel {
 public:
  // One write in an object's history, in install order.
  struct Write {
    bool goal_flip = false;   // Otherwise a proof toggle of `subject`.
    uint32_t subject = 0;
  };

  VerdictModel(size_t subjects, size_t objects)
      : subjects_(subjects),
        objects_(objects),
        initial_proof_(subjects * objects, 0),
        epochs_(new std::atomic<uint32_t>[objects]),
        goal_history_(objects),
        toggles_(subjects * objects) {
    for (size_t o = 0; o < objects; ++o) {
      epochs_[o].store(0, std::memory_order_relaxed);
      goal_history_[o].push_back(1);  // Every object starts on its allow goal.
    }
  }

  size_t subjects() const { return subjects_; }
  size_t objects() const { return objects_; }

  void SetInitialProof(size_t s, size_t o, bool held) { initial_proof_[s * objects_ + o] = held; }
  bool InitialProof(size_t s, size_t o) const { return initial_proof_[s * objects_ + o] != 0; }

  // Appends the next write to object `o`'s history. Called before the
  // run, in each object's write order.
  void AddWrite(size_t o, const Write& w) {
    std::vector<uint8_t>& goals = goal_history_[o];
    const uint32_t k = static_cast<uint32_t>(goals.size());  // The state this write installs.
    const uint8_t goal = goals.back();
    goals.push_back(w.goal_flip ? static_cast<uint8_t>(!goal) : goal);
    if (!w.goal_flip) {
      toggles_[w.subject * objects_ + o].push_back(k);
    }
  }

  // Number of states object `o` passes through (writes + 1).
  size_t States(size_t o) const { return goal_history_[o].size(); }
  bool GoalAllows(size_t o, size_t k) const { return goal_history_[o][k] != 0; }
  bool ProofHeld(size_t s, size_t o, size_t k) const {
    const std::vector<uint32_t>& t = toggles_[s * objects_ + o];
    const size_t flips =
        static_cast<size_t>(std::upper_bound(t.begin(), t.end(), static_cast<uint32_t>(k)) -
                            t.begin());
    return InitialProof(s, o) != (flips % 2 == 1);
  }
  bool Verdict(size_t s, size_t o, size_t k) const {
    return GoalAllows(o, k) && ProofHeld(s, o, k);
  }

  // ----------------------------------------------------------- run time
  uint32_t Epoch(size_t o) const { return epochs_[o].load(std::memory_order_acquire); }
  // Reads the epoch after an operation: the fence keeps the load from
  // moving above the operation's own reads of system state.
  uint32_t EpochAfter(size_t o) const {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return epochs_[o].load(std::memory_order_acquire);
  }
  void BeginWrite(size_t o) { epochs_[o].fetch_add(1, std::memory_order_seq_cst); }
  void EndWrite(size_t o) { epochs_[o].fetch_add(1, std::memory_order_release); }

  // Is `got` the verdict of some state object `o` was in while the
  // operation ran?
  bool Admissible(size_t s, size_t o, uint32_t e1, uint32_t e2, bool got) const {
    const size_t lo = e1 / 2;
    const size_t hi = std::min<size_t>((e2 + 1) / 2, States(o) - 1);
    for (size_t k = lo; k <= hi; ++k) {
      if (Verdict(s, o, k) == got) {
        return true;
      }
    }
    return false;
  }

 private:
  size_t subjects_;
  size_t objects_;
  std::vector<uint8_t> initial_proof_;
  std::unique_ptr<std::atomic<uint32_t>[]> epochs_;
  std::vector<std::vector<uint8_t>> goal_history_;   // Per object, per state.
  std::vector<std::vector<uint32_t>> toggles_;       // Per (s, o): states that flip the proof.
};

}  // namespace e2e

#endif  // E2EBENCH_MODEL_H_
