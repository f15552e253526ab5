#include "kernel/ipc.h"

#include "nal/interner.h"
#include "util/metrics.h"

namespace nexus::kernel {

namespace {

// Process-wide audit counter for the zero-string hot-path assertion
// (per-thread cells: a tally every message builder bumps must not be one
// cache line shared by all cores).
constinit metrics::Counter text_payloads;

// Wire op-kind discriminators (first byte after the version).
constexpr uint8_t kOpInterned = 0;
constexpr uint8_t kOpLegacyText = 1;
constexpr uint8_t kWireVersion = 2;

}  // namespace

uint64_t IpcTextPayloadCount() { return text_payloads.Value(); }

void ArgVec::DetachArena() {
  // Copy-on-write: appending through an arena some other ArgVec still
  // reads (a monitor's working copy, an aliasing reply) clones it first,
  // so existing slots — including the aliased ones — never move.
  if (arena_ != nullptr && arena_.use_count() > 1) {
    arena_ = std::make_shared<std::string>(*arena_);
  }
}

bool ArgVec::AddPayload(ArgTag tag, std::string_view payload) {
  size_t arena_size = arena_ == nullptr ? 0 : arena_->size();
  if (count_ >= kMaxArgs || arena_size + payload.size() > 0xffffffffULL) {
    return false;
  }
  text_payloads.Increment();
  DetachArena();
  if (arena_ == nullptr) {
    arena_ = std::make_shared<std::string>();
  }
  uint32_t offset = static_cast<uint32_t>(arena_->size());
  arena_->append(payload);
  slots_[count_++] = Slot{tag, offset, static_cast<uint32_t>(payload.size()), 0};
  return true;
}

bool ArgVec::AddAliasedPayload(ArgTag tag, const ArgVec& source, size_t i) {
  if (count_ >= kMaxArgs || i >= source.count_) {
    return false;
  }
  const Slot& s = source.slots_[i];
  if (s.tag != ArgTag::kBytes && s.tag != ArgTag::kString) {
    return false;
  }
  if (arena_ == nullptr || arena_ == source.arena_) {
    // Adopt the source arena: the slot is a (offset, length) view into
    // bytes that already exist — nothing moves, nothing is counted (the
    // text-payload audit tracks MATERIALIZED payloads only).
    arena_ = source.arena_;
    slots_[count_++] = Slot{tag, s.offset, s.length, 0};
    return true;
  }
  // Mixed provenance (this vector already owns different payload bytes):
  // fall back to the counted copy.
  return AddPayload(tag, source.PayloadOf(s));
}

IpcMessage IpcMessage::FromLegacy(std::string_view operation,
                                  std::vector<std::string> legacy_args, Payload data) {
  IpcMessage message;
  // A name that was ever interned resolves for free; only genuinely novel
  // operation text stays pending for the kernel's charged resolution.
  if (std::optional<OpId> known = FindOp(operation); known.has_value()) {
    message.op = *known;
  } else {
    // Carried UNTRUNCATED: the kernel boundary rejects names past
    // kMaxLegacyOpName (truncating here would alias distinct long names
    // to one identity while other surfaces intern the full text).
    text_payloads.Increment();
    message.legacy_op_.assign(operation);
  }
  for (const std::string& arg : legacy_args) {
    message.AddString(arg);
  }
  message.data = std::move(data);
  return message;
}

std::string_view SyscallName(Syscall call) {
  switch (call) {
    case Syscall::kNull:
      return "null";
    case Syscall::kGetPpid:
      return "getppid";
    case Syscall::kGetTimeOfDay:
      return "gettimeofday";
    case Syscall::kYield:
      return "yield";
    case Syscall::kOpen:
      return "open";
    case Syscall::kClose:
      return "close";
    case Syscall::kRead:
      return "read";
    case Syscall::kWrite:
      return "write";
    case Syscall::kSay:
      return "say";
    case Syscall::kSetGoal:
      return "setgoal";
    case Syscall::kSetProof:
      return "setproof";
    case Syscall::kInterpose:
      return "interpose";
    case Syscall::kIpcCall:
      return "ipc_call";
    case Syscall::kProcRead:
      return "proc_read";
  }
  return "?";
}

OpId SyscallOp(Syscall call) {
  // Appending a Syscall without growing kSyscallCount would make this
  // table silently resolve the new call to op 0 — fail the build instead.
  static_assert(static_cast<size_t>(Syscall::kProcRead) + 1 == kSyscallCount,
                "update kSyscallCount (and this assert's last enumerator) when "
                "appending syscalls");
  // One interning pass per process lifetime, first use (the table is tiny
  // and the names are kernel-owned, so nothing is charged).
  static const std::array<OpId, kSyscallCount> ids = [] {
    std::array<OpId, kSyscallCount> table{};
    for (size_t i = 0; i < table.size(); ++i) {
      table[i] = InternOp(SyscallName(static_cast<Syscall>(i)));
    }
    return table;
  }();
  size_t index = static_cast<size_t>(call);
  return index < ids.size() ? ids[index] : 0;
}

// ------------------------------------------------------- Typed accessors

namespace {

// Shared scalar read: the exact tag, kU64 (the generic integer), or — for
// the accessors that allow it — decimal text through the single validated
// legacy decode point (ParseDecimalU64 lives here and nowhere else).
Result<uint64_t> ScalarArg(const ArgVec& args, size_t i, ArgTag exact, const char* what) {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  ArgSlot slot = args[i];
  if (slot.tag() == exact || slot.tag() == ArgTag::kU64) {
    return slot.scalar();
  }
  if (slot.tag() == ArgTag::kString) {
    // Decimal or rejected, never an exception (std::stoull would throw out
    // of the simulation on "garbage" or a 100-digit number).
    std::optional<uint64_t> parsed = ParseDecimalU64(slot.text());
    if (!parsed.has_value()) {
      return InvalidArgument("argument slot " + std::to_string(i) + " must be a " +
                             std::string(what) + " (or decimal text)");
    }
    return *parsed;
  }
  return InvalidArgument("argument slot " + std::to_string(i) + " is not a " +
                         std::string(what));
}

}  // namespace

Result<uint64_t> IpcMessage::ArgU64(size_t i) const {
  return ScalarArg(args, i, ArgTag::kU64, "u64");
}

Result<ProcessId> IpcMessage::ArgProcess(size_t i) const {
  return ScalarArg(args, i, ArgTag::kProcess, "process id");
}

Result<PortId> IpcMessage::ArgPort(size_t i) const {
  return ScalarArg(args, i, ArgTag::kPort, "port id");
}

Result<ObjectId> IpcMessage::ArgObject(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  ArgSlot slot = args[i];
  if (slot.tag() == ArgTag::kObject) {
    return static_cast<ObjectId>(slot.scalar());
  }
  if (slot.tag() == ArgTag::kU64) {
    // The generic-integer coercion must not bypass the forged-id check the
    // wire applies to kObject slots (IsKnownObjectId: a forged id would
    // reach the fail-OPEN bootstrap policy as an "unregistered object").
    if (!IsKnownObjectId(slot.scalar())) {
      return InvalidArgument("argument slot " + std::to_string(i) +
                             " is not a known object id");
    }
    return static_cast<ObjectId>(slot.scalar());
  }
  // No text coercion: object NAMES must enter through the charged intern
  // surface (Kernel::InternObjectCharged), never sneak in as ids.
  return InvalidArgument("argument slot " + std::to_string(i) + " is not an object id");
}

Result<uint64_t> IpcMessage::ArgFormula(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  ArgSlot slot = args[i];
  if (slot.tag() == ArgTag::kFormula || slot.tag() == ArgTag::kU64) {
    return slot.scalar();
  }
  return InvalidArgument("argument slot " + std::to_string(i) + " is not a formula id");
}

Result<std::string_view> IpcMessage::ArgString(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  if (args[i].tag() != ArgTag::kString) {
    return InvalidArgument("argument slot " + std::to_string(i) + " is not a string");
  }
  return args[i].text();
}

Result<ByteView> IpcMessage::ArgBytes(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  if (args[i].tag() != ArgTag::kBytes) {
    return InvalidArgument("argument slot " + std::to_string(i) + " is not a byte payload");
  }
  return args[i].blob();
}

// ----------------------------------------------------------- Wire format
//
//   u8  version (2)
//   u8  op kind: 0 = u32 interned OpId follows, 1 = length-prefixed text
//   u8  argc (<= ArgVec::kMaxArgs)
//   per arg: u8 tag, then u64 scalar | u32 length + payload
//   u32 data length + data
//   (end of buffer — trailing bytes are rejected)

Status ValidateWireBounds(const IpcMessage& message) {
  if (message.args_overflowed()) {
    return InvalidArgument("message exceeds the typed-slot capacity (" +
                           std::to_string(ArgVec::kMaxArgs) + " slots)");
  }
  if (message.needs_op_resolution()) {
    if (message.legacy_op().size() > kMaxLegacyOpName) {
      return InvalidArgument("legacy operation name too long");
    }
  } else if (!IsKnownOpId(message.op)) {
    // Forged-id rejection is part of the bounds contract, so it holds with
    // or without interposition (the marshaled path also re-checks at
    // unmarshal time for buffers arriving from elsewhere).
    return InvalidArgument("unknown interned operation id");
  }
  if (message.data.size() > kMaxIpcData) {
    return InvalidArgument("data payload exceeds wire bound");
  }
  for (size_t i = 0; i < message.args.size(); ++i) {
    ArgSlot arg = message.args[i];
    if (!arg.is_scalar() && arg.payload_size() > kMaxArgPayload) {
      return InvalidArgument("argument payload exceeds wire bound");
    }
    if (arg.tag() == ArgTag::kObject && !IsKnownObjectId(arg.scalar())) {
      return InvalidArgument("unknown interned object id");
    }
  }
  return OkStatus();
}

Result<Bytes> MarshalMessage(const IpcMessage& message) {
  Status bounded = ValidateWireBounds(message);
  if (!bounded.ok()) {
    return bounded;
  }
  size_t size = 3 + 4 + message.legacy_op().size() + 4 + message.data.size();
  for (size_t i = 0; i < message.args.size(); ++i) {
    ArgSlot arg = message.args[i];
    size += 1 + (arg.is_scalar() ? 8 : 4 + arg.payload_size());
  }
  Bytes out;
  out.reserve(size);
  out.push_back(kWireVersion);
  if (message.needs_op_resolution()) {
    out.push_back(kOpLegacyText);
    AppendLengthPrefixed(out, ToBytes(message.legacy_op()));
  } else {
    out.push_back(kOpInterned);
    AppendU32(out, message.op);
  }
  out.push_back(static_cast<uint8_t>(message.args.size()));
  for (size_t i = 0; i < message.args.size(); ++i) {
    ArgSlot arg = message.args[i];
    out.push_back(static_cast<uint8_t>(arg.tag()));
    if (arg.is_scalar()) {
      AppendU64(out, arg.scalar());
    } else {
      AppendLengthPrefixed(out, arg.blob());
    }
  }
  AppendLengthPrefixed(out, message.data);
  return out;
}

namespace {

// Shared slot-body decoder (message and reply bodies carry the identical
// argc + tagged-slot layout). Strict: bad tag, overlong count, oversized
// payload, and forged object ids reject the whole buffer.
Status ReadArgSlots(ByteReader& reader, ArgVec* args) {
  Result<uint8_t> argc = reader.ReadU8();
  if (!argc.ok()) {
    return argc.status();
  }
  if (*argc > ArgVec::kMaxArgs) {
    return InvalidArgument("argument slot count exceeds capacity");
  }
  for (uint8_t i = 0; i < *argc; ++i) {
    Result<uint8_t> tag = reader.ReadU8();
    if (!tag.ok()) {
      return tag.status();
    }
    switch (static_cast<ArgTag>(*tag)) {
      case ArgTag::kU64:
      case ArgTag::kProcess:
      case ArgTag::kPort:
      case ArgTag::kObject:
      case ArgTag::kFormula: {
        Result<uint64_t> scalar = reader.ReadU64();
        if (!scalar.ok()) {
          return scalar.status();
        }
        if (static_cast<ArgTag>(*tag) == ArgTag::kObject && !IsKnownObjectId(*scalar)) {
          // A value that fits no table entry is a forgery, not an argument
          // (the bootstrap policy treats unknown objects as unguarded, so
          // letting one through would fail OPEN).
          return InvalidArgument("unknown interned object id");
        }
        args->AddScalar(static_cast<ArgTag>(*tag), *scalar);
        break;
      }
      case ArgTag::kBytes:
      case ArgTag::kString: {
        Result<Bytes> payload = reader.ReadLengthPrefixed();
        if (!payload.ok()) {
          return payload.status();
        }
        if (payload->size() > kMaxArgPayload) {
          return InvalidArgument("argument payload exceeds wire bound");
        }
        args->AddPayload(static_cast<ArgTag>(*tag),
                         std::string_view(reinterpret_cast<const char*>(payload->data()),
                                          payload->size()));
        break;
      }
      default:
        return InvalidArgument("bad argument tag");
    }
  }
  return OkStatus();
}

}  // namespace

Result<IpcMessage> UnmarshalMessage(ByteView buffer) {
  ByteReader reader(buffer);
  Result<uint8_t> version = reader.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kWireVersion) {
    return InvalidArgument("unsupported IPC wire version");
  }
  IpcMessage message;
  Result<uint8_t> op_kind = reader.ReadU8();
  if (!op_kind.ok()) {
    return op_kind.status();
  }
  if (*op_kind == kOpInterned) {
    Result<uint32_t> op = reader.ReadU32();
    if (!op.ok()) {
      return op.status();
    }
    // Strictness: a forged id that names nothing is rejected here, not
    // carried into dispatch as an unresolvable operation.
    if (!IsKnownOpId(*op)) {
      return InvalidArgument("unknown interned operation id");
    }
    message.op = *op;
  } else if (*op_kind == kOpLegacyText) {
    Result<Bytes> text = reader.ReadLengthPrefixed();
    if (!text.ok()) {
      return text.status();
    }
    if (text->size() > kMaxLegacyOpName) {
      return InvalidArgument("legacy operation name too long");
    }
    // Re-enters through the shim so interned-vs-pending state is rebuilt
    // exactly as the producer's FromLegacy left it.
    IpcMessage shim = IpcMessage::FromLegacy(ToString(*text));
    message.op = shim.op;
    message.legacy_op_ = std::move(shim.legacy_op_);
  } else {
    return InvalidArgument("bad operation kind");
  }
  Status slots = ReadArgSlots(reader, &message.args);
  if (!slots.ok()) {
    return slots;
  }
  Result<Bytes> data = reader.ReadLengthPrefixed();
  if (!data.ok()) {
    return data.status();
  }
  if (data->size() > kMaxIpcData) {
    return InvalidArgument("data payload exceeds wire bound");
  }
  message.data = std::move(*data);
  if (!reader.AtEnd()) {
    return InvalidArgument("trailing bytes after message");
  }
  return message;
}

// ------------------------------------------------------------ Reply side
//
//   u8  version (2)
//   u8  status code (ErrorCode)
//   u32 status message length + text (<= kMaxReplyStatusMessage)
//   u8  argc (<= ArgVec::kMaxArgs)
//   per arg: u8 tag, then u64 scalar | u32 length + payload
//   u32 data length + data
//   (end of buffer — trailing bytes are rejected)

IpcReply IpcReply::FromLegacy(Status status, std::string_view text, Payload data,
                              int64_t value) {
  IpcReply reply(std::move(status));
  // Slot order matters for the v1-compat readers: value() scans for the
  // first kU64, text() for the first kString. Zero/empty legacy fields add
  // no slot at all (a scalar-only legacy reply stays arena-free and does
  // not bump the text-payload audit counter spuriously).
  if (value != 0) {
    reply.AddU64(static_cast<uint64_t>(value));
  }
  if (!text.empty()) {
    reply.AddString(text);
  }
  reply.data = std::move(data);
  return reply;
}

Result<uint64_t> IpcReply::ArgU64(size_t i) const {
  return ScalarArg(args, i, ArgTag::kU64, "u64");
}

Result<ProcessId> IpcReply::ArgProcess(size_t i) const {
  return ScalarArg(args, i, ArgTag::kProcess, "process id");
}

Result<PortId> IpcReply::ArgPort(size_t i) const {
  return ScalarArg(args, i, ArgTag::kPort, "port id");
}

Result<ObjectId> IpcReply::ArgObject(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  ArgSlot slot = args[i];
  if (slot.tag() == ArgTag::kObject) {
    return static_cast<ObjectId>(slot.scalar());
  }
  if (slot.tag() == ArgTag::kU64) {
    // Same forged-id discipline as the request side: the generic-integer
    // coercion must not smuggle an unknown id past the kObject check.
    if (!IsKnownObjectId(slot.scalar())) {
      return InvalidArgument("argument slot " + std::to_string(i) +
                             " is not a known object id");
    }
    return static_cast<ObjectId>(slot.scalar());
  }
  return InvalidArgument("argument slot " + std::to_string(i) + " is not an object id");
}

Result<uint64_t> IpcReply::ArgFormula(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  ArgSlot slot = args[i];
  if (slot.tag() == ArgTag::kFormula || slot.tag() == ArgTag::kU64) {
    return slot.scalar();
  }
  return InvalidArgument("argument slot " + std::to_string(i) + " is not a formula id");
}

Result<std::string_view> IpcReply::ArgString(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  if (args[i].tag() != ArgTag::kString) {
    return InvalidArgument("argument slot " + std::to_string(i) + " is not a string");
  }
  return args[i].text();
}

Result<ByteView> IpcReply::ArgBytes(size_t i) const {
  if (i >= args.size()) {
    return InvalidArgument("missing argument slot " + std::to_string(i));
  }
  if (args[i].tag() != ArgTag::kBytes) {
    return InvalidArgument("argument slot " + std::to_string(i) + " is not a byte payload");
  }
  return args[i].blob();
}

Status ValidateReplyWireBounds(const IpcReply& reply) {
  if (reply.args_overflowed()) {
    return InvalidArgument("reply exceeds the typed-slot capacity (" +
                           std::to_string(ArgVec::kMaxArgs) + " slots)");
  }
  if (reply.status.message().size() > kMaxReplyStatusMessage) {
    return InvalidArgument("reply status message exceeds wire bound");
  }
  if (reply.data.size() > kMaxIpcData) {
    return InvalidArgument("data payload exceeds wire bound");
  }
  for (size_t i = 0; i < reply.args.size(); ++i) {
    ArgSlot arg = reply.args[i];
    if (!arg.is_scalar() && arg.payload_size() > kMaxArgPayload) {
      return InvalidArgument("argument payload exceeds wire bound");
    }
    if (arg.tag() == ArgTag::kObject && !IsKnownObjectId(arg.scalar())) {
      return InvalidArgument("unknown interned object id");
    }
    // A reply is a RESULT: a formula id the receiving side cannot resolve
    // names nothing and can only mislead whatever consumes it — forged,
    // reject whole. (Requests leave this to the consumer, which resolves
    // the goal itself; replies have no later resolution step.)
    if (arg.tag() == ArgTag::kFormula &&
        nal::Interner::Global().Resolve(arg.scalar()) == nullptr) {
      return InvalidArgument("unknown interned formula id");
    }
  }
  return OkStatus();
}

Result<Bytes> MarshalReply(const IpcReply& reply) {
  Status bounded = ValidateReplyWireBounds(reply);
  if (!bounded.ok()) {
    return bounded;
  }
  size_t size = 2 + 4 + reply.status.message().size() + 1 + 4 + reply.data.size();
  for (size_t i = 0; i < reply.args.size(); ++i) {
    ArgSlot arg = reply.args[i];
    size += 1 + (arg.is_scalar() ? 8 : 4 + arg.payload_size());
  }
  Bytes out;
  out.reserve(size);
  out.push_back(kWireVersion);
  out.push_back(static_cast<uint8_t>(reply.status.code()));
  AppendLengthPrefixed(out, ToBytes(reply.status.message()));
  out.push_back(static_cast<uint8_t>(reply.args.size()));
  for (size_t i = 0; i < reply.args.size(); ++i) {
    ArgSlot arg = reply.args[i];
    out.push_back(static_cast<uint8_t>(arg.tag()));
    if (arg.is_scalar()) {
      AppendU64(out, arg.scalar());
    } else {
      AppendLengthPrefixed(out, arg.blob());
    }
  }
  AppendLengthPrefixed(out, reply.data);
  return out;
}

Result<IpcReply> UnmarshalReply(ByteView buffer) {
  ByteReader reader(buffer);
  Result<uint8_t> version = reader.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kWireVersion) {
    return InvalidArgument("unsupported IPC wire version");
  }
  Result<uint8_t> code = reader.ReadU8();
  if (!code.ok()) {
    return code.status();
  }
  if (*code > static_cast<uint8_t>(ErrorCode::kInternal)) {
    return InvalidArgument("bad reply status code");
  }
  Result<Bytes> status_message = reader.ReadLengthPrefixed();
  if (!status_message.ok()) {
    return status_message.status();
  }
  if (status_message->size() > kMaxReplyStatusMessage) {
    return InvalidArgument("reply status message exceeds wire bound");
  }
  IpcReply reply(Status(static_cast<ErrorCode>(*code), ToString(*status_message)));
  Status slots = ReadArgSlots(reader, &reply.args);
  if (!slots.ok()) {
    return slots;
  }
  Result<Bytes> data = reader.ReadLengthPrefixed();
  if (!data.ok()) {
    return data.status();
  }
  if (data->size() > kMaxIpcData) {
    return InvalidArgument("data payload exceeds wire bound");
  }
  reply.data = std::move(*data);
  if (!reader.AtEnd()) {
    return InvalidArgument("trailing bytes after reply");
  }
  // The shared slot decoder covers object-id forgery; formula ids are a
  // reply-only check (see ValidateReplyWireBounds).
  for (size_t i = 0; i < reply.args.size(); ++i) {
    if (reply.args[i].tag() == ArgTag::kFormula &&
        nal::Interner::Global().Resolve(reply.args[i].scalar()) == nullptr) {
      return InvalidArgument("unknown interned formula id");
    }
  }
  return reply;
}

}  // namespace nexus::kernel
