// The Nexus system façade.
//
// Wires the full stack together the way §3.4 describes the boot sequence:
// power-up resets the TPM's PCRs; the (simulated) BIOS, boot loader, and
// kernel image are measured into PCRs 0-2; on first boot the kernel takes
// TPM ownership and generates the Nexus key NK sealed to those PCRs; every
// boot derives a Nexus boot key identifier NBK. The façade then constructs
// the kernel, default guard, authorization engine, and file server, and
// exposes the label/goal/proof system-call surface plus certificate
// externalization/import.
#ifndef NEXUS_CORE_NEXUS_H_
#define NEXUS_CORE_NEXUS_H_

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/certificate.h"
#include "core/engine.h"
#include "core/guard.h"
#include "kernel/fileserver.h"
#include "kernel/kernel.h"
#include "tpm/tpm.h"

namespace nexus::core {

struct NexusOptions {
  uint64_t seed = 42;
  int nk_bits = 512;       // Kernel key strength (simulation default).
  bool measure_boot = true;
};

// PCR allocation mirroring the static root of trust (§3.4).
inline constexpr int kPcrFirmware = 0;
inline constexpr int kPcrBootLoader = 1;
inline constexpr int kPcrKernel = 2;

class Nexus {
 public:
  // Boots a Nexus instance on the given TPM. Takes ownership of the TPM on
  // first boot (generating SRK + NK); on later boots unseals the existing
  // NK, which succeeds only if the same kernel was measured.
  Nexus(tpm::Tpm* tpm, const NexusOptions& options = NexusOptions{});

  kernel::Kernel& kernel() { return kernel_; }
  Engine& engine() { return engine_; }
  Guard& guard() { return default_guard_; }
  kernel::FileServer& fs() { return *fs_; }
  tpm::Tpm& tpm() { return *tpm_; }
  Rng& rng() { return rng_; }

  // -------------------------------------------------------- Process mgmt
  // Creates a process and deposits the kernel-issued binding labels:
  //   Nexus says IPC.<syscall port> speaksfor Nexus.ipd.<pid>
  //   Nexus says launchHash(/proc/ipd/<pid>, "<sha256>")
  Result<kernel::ProcessId> CreateProcess(const std::string& name, ByteView binary,
                                          kernel::ProcessId parent = kernel::kKernelProcessId);
  // Kills a process through the kernel, then deletes its launchHash label:
  // every engine miss copies the system labelstore into its credential
  // set, so it must hold the live processes, not every one ever created.
  Status KillProcess(kernel::ProcessId pid);

  // Creates a port owned by `owner` and deposits the kernel binding label
  //   Nexus says IPC.<port> speaksfor Nexus.ipd.<owner>   (§2.4).
  Result<kernel::PortId> CreatePort(kernel::ProcessId owner);

  // ----------------------------------------------------- Externalization
  // Externalizes a label from `pid`'s labelstore into a signed certificate
  // whose speaker is the fully-qualified TPM-rooted principal (§2.4).
  Result<Certificate> ExternalizeLabel(kernel::ProcessId pid, LabelHandle handle);
  // Verifies a certificate (against this instance's trusted EK by default)
  // and imports the statement into `pid`'s labelstore.
  Result<LabelHandle> ImportCertificate(kernel::ProcessId pid, const Certificate& cert,
                                        const crypto::RsaPublicKey& trusted_ek);

  // ------------------------------------------------------ Peer instances
  // The trust anchors for distributed attestation: a peer is a named remote
  // Nexus instance whose TPM endorsement key this instance accepts as a
  // certificate root (the paper's out-of-band EK distribution).
  Status RegisterPeer(const std::string& name, const crypto::RsaPublicKey& ek);
  Result<crypto::RsaPublicKey> PeerEk(const std::string& name) const;
  bool IsTrustedPeerEk(const crypto::RsaPublicKey& ek) const;
  Result<std::string> PeerNameForEk(const crypto::RsaPublicKey& ek) const;

  // Imports a certificate rooted in any registered peer EK. Idempotent per
  // (pid, certificate): re-importing a replayed or re-ordered duplicate
  // returns the original handle instead of minting a second label, which is
  // what makes certificate exchange order-insensitive and replay-safe.
  Result<LabelHandle> ImportPeerCertificate(kernel::ProcessId pid, const Certificate& cert);

  // Signs `message` with the Nexus kernel key NK (used by the attested
  // channel handshake to prove live possession of NK).
  Bytes NkSign(ByteView message) const;
  // Decrypts a ciphertext addressed to this instance's NK (session key
  // shares in the channel handshake).
  Result<Bytes> NkDecrypt(ByteView ciphertext) const;
  // The TPM's EK endorsement of NK, minted at first boot.
  const Bytes& nk_ek_attestation() const { return nk_ek_attestation_; }

  // The fully-qualified external name of this instance's kernel:
  // tpm.<ek8>.nexus.<nk8>.boot.<nbk8>.
  nal::Principal ExternalKernelPrincipal() const;
  const crypto::RsaPublicKey& nexus_public_key() const { return nk_.public_key; }
  Bytes boot_composite() const { return boot_composite_; }

 private:
  tpm::Tpm* tpm_;
  Rng rng_;
  crypto::RsaKeyPair nk_;
  Bytes nk_seal_blob_;
  std::string nbk_id_;
  Bytes boot_composite_;
  Bytes nk_ek_attestation_;

  kernel::Kernel kernel_;
  Guard default_guard_;
  Engine engine_;
  std::unique_ptr<kernel::FileServer> fs_;
  kernel::PortId fs_port_ = 0;

  // pid -> the launchHash label CreateProcess deposited for it.
  std::mutex launch_labels_mu_;
  std::unordered_map<kernel::ProcessId, LabelHandle> launch_labels_;

  std::map<std::string, crypto::RsaPublicKey> peers_;
  // (pid, certificate digest) -> handle of the already-imported label.
  // Bounded FIFO: past the cap the oldest dedupe records are dropped, so a
  // very old replay re-imports (harmlessly — the label content is
  // identical) instead of the map growing forever.
  static constexpr size_t kImportedCertCap = 65536;
  std::map<std::pair<kernel::ProcessId, std::string>, LabelHandle> imported_certs_;
  std::deque<std::pair<kernel::ProcessId, std::string>> imported_order_;
};

}  // namespace nexus::core

#endif  // NEXUS_CORE_NEXUS_H_
