#include "core/nexus.h"

#include "crypto/sha256.h"

namespace nexus::core {

namespace {

constexpr std::string_view kFirmwareImage = "nexus-sim-firmware-v1";
constexpr std::string_view kBootLoaderImage = "nexus-sim-bootloader-v1";
constexpr std::string_view kKernelImage = "nexus-sim-kernel-v1";

std::string ShortId(ByteView data) { return crypto::Sha256Hex(data).substr(0, 8); }

}  // namespace

Nexus::Nexus(tpm::Tpm* tpm, const NexusOptions& options)
    : tpm_(tpm), rng_(options.seed), default_guard_(&kernel_), engine_(&kernel_, &default_guard_) {
  // --- Boot sequence (§3.4): measure the static root of trust.
  tpm_->PowerCycle();
  if (options.measure_boot) {
    tpm_->MeasureAndExtend(kPcrFirmware, ToBytes(kFirmwareImage));
    tpm_->MeasureAndExtend(kPcrBootLoader, ToBytes(kBootLoaderImage));
    tpm_->MeasureAndExtend(kPcrKernel, ToBytes(kKernelImage));
  }
  const std::vector<int> policy_pcrs = {kPcrFirmware, kPcrBootLoader, kPcrKernel};
  boot_composite_ = tpm_->ReadComposite(policy_pcrs).value();

  if (!tpm_->IsOwned()) {
    // First boot: take ownership and mint the Nexus key bound to this PCR
    // state. A modified kernel produces different PCRs and cannot reach it.
    tpm_->TakeOwnership(rng_, policy_pcrs);
    nk_ = crypto::GenerateRsaKeyPair(rng_, options.nk_bits);
    Bytes nk_material;
    AppendLengthPrefixed(nk_material, nk_.private_key.n.ToBytes());
    AppendLengthPrefixed(nk_material, nk_.private_key.e.ToBytes());
    AppendLengthPrefixed(nk_material, nk_.private_key.d.ToBytes());
    Result<Bytes> sealed = tpm_->Seal(nk_material, policy_pcrs);
    nk_seal_blob_ = sealed.ok() ? *sealed : Bytes{};
    tpm_->NvDefine(/*index=*/1, nk_seal_blob_.size(), /*pcr_bound=*/true);
    tpm_->NvWrite(1, nk_seal_blob_);
  } else {
    // Later boot: recover NK by unsealing — only possible with matching
    // PCRs.
    Result<Bytes> blob = tpm_->NvRead(1);
    if (blob.ok()) {
      Result<Bytes> material = tpm_->Unseal(*blob);
      if (material.ok()) {
        ByteReader reader(*material);
        Bytes n = reader.ReadLengthPrefixed().value();
        Bytes e = reader.ReadLengthPrefixed().value();
        Bytes d = reader.ReadLengthPrefixed().value();
        nk_.private_key.n = crypto::BigNum::FromBytes(n);
        nk_.private_key.e = crypto::BigNum::FromBytes(e);
        nk_.private_key.d = crypto::BigNum::FromBytes(d);
        nk_.public_key = nk_.private_key.PublicKey();
      }
    }
    if (nk_.public_key.n.IsZero()) {
      // Unreachable in a healthy boot; mint a fresh NK so the instance is
      // at least self-consistent (certificates will not chain to old ones).
      nk_ = crypto::GenerateRsaKeyPair(rng_, options.nk_bits);
    }
  }

  // The boot key identifier names this unique boot instantiation.
  Bytes nbk_material = nk_.public_key.Serialize();
  AppendU64(nbk_material, tpm_->boot_counter());
  nbk_id_ = ShortId(nbk_material);

  // TPM-side endorsement of NK: "TPM says kernel ...".
  Result<Bytes> attestation = tpm_->SignWithEk(NkBindingMessage(nk_.public_key, boot_composite_));
  nk_ek_attestation_ = attestation.ok() ? *attestation : Bytes{};

  // --- Construct the system processes.
  kernel_.set_engine(&engine_);
  fs_ = std::make_unique<kernel::FileServer>(&kernel_);
  Result<kernel::ProcessId> fs_pid = CreateProcess("filesystem", ToBytes("nexus-fs-v1"));
  // The fileserver claims its RESERVED boot port (kernel/syscall_ports.h):
  // the port id is part of the ABI, not a boot-order accident.
  fs_port_ = kernel::kFsBootPort;
  kernel_.ClaimBootPort(fs_port_, *fs_pid, fs_.get());
  engine_.SayAs(kernel_.KernelPrincipal(),
                nal::FormulaNode::SpeaksFor(nal::Principal("IPC").Sub(std::to_string(fs_port_)),
                                            kernel_.ProcessPrincipal(*fs_pid)));
  kernel_.set_fs_port(fs_port_);
}

Result<kernel::ProcessId> Nexus::CreateProcess(const std::string& name, ByteView binary,
                                               kernel::ProcessId parent) {
  Result<kernel::ProcessId> pid = kernel_.CreateProcess(name, binary, parent);
  if (!pid.ok()) {
    return pid;
  }
  // Syscall channels are the RESERVED per-syscall ports now — shared by
  // every process and existing from cycle zero — so there is no per-process
  // syscall port to create or to bind a speaksfor statement to.
  nal::Principal nexus = kernel_.KernelPrincipal();
  // Nexus says launchHash(/proc/ipd/<pid>, "<hex>").
  const crypto::Sha256Digest hash = crypto::Sha256::Hash(binary);
  LabelHandle label = engine_.SayAs(
      nexus, nal::FormulaNode::Pred(
                 "launchHash", {nal::Term::Symbol(kernel::Kernel::ProcPath(*pid)),
                                nal::Term::String(HexEncode(ByteView(hash.data(), hash.size())))}));
  std::lock_guard<std::mutex> lock(launch_labels_mu_);
  launch_labels_[*pid] = label;
  return pid;
}

Status Nexus::KillProcess(kernel::ProcessId pid) {
  NEXUS_RETURN_IF_ERROR(kernel_.KillProcess(pid));
  LabelHandle label = 0;
  {
    std::lock_guard<std::mutex> lock(launch_labels_mu_);
    auto it = launch_labels_.find(pid);
    if (it == launch_labels_.end()) {
      return OkStatus();  // Created through the bare kernel: no label.
    }
    label = it->second;
    launch_labels_.erase(it);
  }
  return engine_.DeleteSystemLabel(label);
}

Result<kernel::PortId> Nexus::CreatePort(kernel::ProcessId owner) {
  Result<kernel::PortId> port = kernel_.CreatePort(owner);
  if (!port.ok()) {
    return port;
  }
  nal::Principal port_principal = nal::Principal("IPC").Sub(std::to_string(*port));
  engine_.SayAs(kernel_.KernelPrincipal(),
                nal::FormulaNode::SpeaksFor(port_principal, kernel_.ProcessPrincipal(owner)));
  return port;
}

nal::Principal Nexus::ExternalKernelPrincipal() const {
  return ExternalPrincipalFor(tpm_->endorsement_public_key(), nk_.public_key, nbk_id_);
}

Result<Certificate> Nexus::ExternalizeLabel(kernel::ProcessId pid, LabelHandle handle) {
  Result<nal::Formula> label = engine_.StoreFor(pid).Get(handle);
  if (!label.ok()) {
    return label.status();
  }
  // Requalify the speaker: the local prefix "Nexus" becomes the TPM-rooted
  // external chain, so remote verifiers see
  //   tpm.<ek>.nexus.<nk>.boot.<nbk>.ipd.<pid> says S.
  const nal::Principal& local = (*label)->speaker();
  nal::Principal external = ExternalKernelPrincipal();
  if (local.base() != kernel_.KernelPrincipal().base()) {
    return FailedPrecondition("only locally attributed labels can be externalized");
  }
  for (const std::string& tag : local.path()) {
    external = external.Sub(tag);
  }
  Certificate cert;
  cert.statement = nal::FormulaNode::Says(external, (*label)->child1());
  cert.nk_public = nk_.public_key;
  cert.nk_signature =
      crypto::RsaSign(nk_.private_key, CertificateStatementMessage(cert.statement));
  cert.ek_attestation = nk_ek_attestation_;
  cert.pcr_composite = boot_composite_;
  cert.ek_public = tpm_->endorsement_public_key();
  return cert;
}

Result<LabelHandle> Nexus::ImportCertificate(kernel::ProcessId pid, const Certificate& cert,
                                             const crypto::RsaPublicKey& trusted_ek) {
  Result<nal::Formula> statement = VerifyCertificate(cert, trusted_ek);
  if (!statement.ok()) {
    return statement.status();
  }
  return engine_.StoreFor(pid).InsertLabel(*statement);
}

Status Nexus::RegisterPeer(const std::string& name, const crypto::RsaPublicKey& ek) {
  if (name.empty() || ek.n.IsZero()) {
    return InvalidArgument("peer registration needs a name and a non-trivial EK");
  }
  auto it = peers_.find(name);
  if (it != peers_.end() && !(it->second == ek)) {
    return AlreadyExists("peer " + name + " already registered with a different EK");
  }
  peers_[name] = ek;
  return OkStatus();
}

Result<crypto::RsaPublicKey> Nexus::PeerEk(const std::string& name) const {
  auto it = peers_.find(name);
  if (it == peers_.end()) {
    return NotFound("no registered peer named " + name);
  }
  return it->second;
}

bool Nexus::IsTrustedPeerEk(const crypto::RsaPublicKey& ek) const {
  for (const auto& [name, peer_ek] : peers_) {
    if (peer_ek == ek) {
      return true;
    }
  }
  return false;
}

Result<std::string> Nexus::PeerNameForEk(const crypto::RsaPublicKey& ek) const {
  for (const auto& [name, peer_ek] : peers_) {
    if (peer_ek == ek) {
      return name;
    }
  }
  return NotFound("EK does not belong to any registered peer");
}

Result<LabelHandle> Nexus::ImportPeerCertificate(kernel::ProcessId pid,
                                                 const Certificate& cert) {
  if (!IsTrustedPeerEk(cert.ek_public)) {
    return Unauthenticated("certificate EK is not a registered peer trust anchor");
  }
  const std::string digest = crypto::Sha256Hex(cert.Serialize());
  auto seen = imported_certs_.find({pid, digest});
  if (seen != imported_certs_.end()) {
    return seen->second;  // Replayed/duplicate delivery: idempotent.
  }
  Result<LabelHandle> handle = ImportCertificate(pid, cert, cert.ek_public);
  if (handle.ok()) {
    imported_certs_[{pid, digest}] = *handle;
    imported_order_.push_back({pid, digest});
    while (imported_order_.size() > kImportedCertCap) {
      imported_certs_.erase(imported_order_.front());
      imported_order_.pop_front();
    }
  }
  return handle;
}

Bytes Nexus::NkSign(ByteView message) const { return crypto::RsaSign(nk_.private_key, message); }

Result<Bytes> Nexus::NkDecrypt(ByteView ciphertext) const {
  return crypto::RsaDecrypt(nk_.private_key, ciphertext);
}

}  // namespace nexus::core
