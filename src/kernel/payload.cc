#include "kernel/payload.h"

#include <algorithm>

#include "util/metrics.h"

namespace nexus::kernel {

namespace {

// Process-wide audit counter for the zero-copy data-plane assertion
// (per-thread cells, like the metrics plane's counters).
constinit metrics::Counter payload_copies;

void CountCopy() { payload_copies.Increment(); }

}  // namespace

uint64_t IpcPayloadCopyCount() { return payload_copies.Value(); }

Payload::Payload(Bytes&& bytes) {
  if (!bytes.empty()) {
    length_ = bytes.size();
    arena_ = std::make_shared<Bytes>(std::move(bytes));
  }
}

Payload::Payload(const Bytes& bytes) {
  if (!bytes.empty()) {
    CountCopy();
    length_ = bytes.size();
    arena_ = std::make_shared<Bytes>(bytes);
  }
}

Payload::Payload(std::initializer_list<uint8_t> init) {
  if (init.size() != 0) {
    CountCopy();
    length_ = init.size();
    arena_ = std::make_shared<Bytes>(init);
  }
}

Payload& Payload::operator=(Bytes&& bytes) {
  *this = Payload(std::move(bytes));
  return *this;
}

Payload Payload::Slice(std::shared_ptr<Bytes> arena, size_t offset, size_t length) {
  Payload out;
  if (arena == nullptr) {
    return out;
  }
  offset = std::min(offset, arena->size());
  length = std::min(length, arena->size() - offset);
  if (length == 0) {
    return out;
  }
  out.arena_ = std::move(arena);
  out.offset_ = offset;
  out.length_ = length;
  return out;
}

Payload Payload::Copy(ByteView bytes) {
  Payload out;
  if (!bytes.empty()) {
    CountCopy();
    out.length_ = bytes.size();
    out.arena_ = std::make_shared<Bytes>(bytes.begin(), bytes.end());
  }
  return out;
}

bool Payload::ViewEquals(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

void Payload::Detach(size_t n) {
  auto fresh = std::make_shared<Bytes>(n, uint8_t{0});
  size_t keep = std::min(length_, n);
  if (keep > 0) {
    CountCopy();
    std::copy_n(arena_->data() + offset_, keep, fresh->data());
  }
  arena_ = std::move(fresh);
  offset_ = 0;
  length_ = n;
}

uint8_t* Payload::MutableData() {
  if (length_ == 0) {
    return nullptr;
  }
  // A uniquely-owned arena mutates in place; a shared one (someone else
  // still reads these bytes) pays exactly one counted copy first.
  if (arena_.use_count() > 1) {
    Detach(length_);
  }
  return arena_->data() + offset_;
}

void Payload::resize(size_t n) {
  if (n <= length_) {
    length_ = n;  // Narrow the slice: zero-copy, shared or not.
    if (n == 0) {
      clear();
    }
    return;
  }
  if (length_ == 0) {
    // Nothing to preserve: fresh zeroed buffer, no copy to count.
    arena_ = std::make_shared<Bytes>(n, uint8_t{0});
    offset_ = 0;
    length_ = n;
    return;
  }
  Detach(n);
}

void Payload::assign(ByteView bytes) { *this = Copy(bytes); }

Bytes Payload::ToOwned() const {
  if (length_ == 0) {
    return Bytes{};
  }
  CountCopy();
  return Bytes(begin(), end());
}

}  // namespace nexus::kernel
