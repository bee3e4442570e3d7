// Network-object parameters (paper §3.1).
//
// "Each network type to which a DASH host is connected is represented by a
// network object" whose parameters include whether all hosts are trusted,
// whether the network has the physical broadcast property, and per
// reliability/security combination the limits of its performance
// parameters (zero if unsupported).
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.h"
#include "rms/params.h"
#include "util/rng.h"
#include "util/time.h"

namespace dash::net {

/// Static properties of a simulated network (Ethernet segment, internet).
struct NetworkTraits {
  std::string name;

  /// All hosts on the network are trusted (§3.1). When true the
  /// subtransport layer elides both encryption and MACs.
  bool trusted = false;

  /// "If an eavesdropper receives an entire message, then so does its
  /// intended recipient" (§3.1). Ethernet-like segments have it.
  bool physical_broadcast = false;

  /// The interface hardware encrypts on the wire, so the ST elides
  /// software encryption for privacy RMS (§2.5 case 2).
  bool link_encryption = false;

  /// The interface hardware checksums frames and drops damaged ones, so
  /// software layers elide checksumming (§2.1 discussion).
  bool hardware_checksum = false;

  /// Raw media speed.
  std::uint64_t bits_per_second = 10'000'000;

  /// One-way propagation delay between any two attached hosts (Ethernet)
  /// or per link (internet).
  Time propagation_delay = usec(10);

  /// Hardware frame size limit (§4.3: "there will always be a message size
  /// limit, e.g. the 1.5KB Ethernet packet size").
  std::uint32_t max_packet_bytes = 1500;

  /// Per-bit error probability of the medium.
  double bit_error_rate = 0.0;

  /// Buffering at each interface / gateway output (bytes).
  std::uint64_t buffer_bytes = 64 * 1024;

  /// Fixed per-packet cost of creating a network RMS (the network-specific
  /// setup protocol the ST caches to avoid, §4.2).
  Time rms_setup_cost = msec(1);
};

/// What the network itself can provide for a quality combination (§3.1:
/// "for each combination of security and reliability parameters, the limits
/// of the network's performance parameters ... may be zero if the
/// combination cannot be directly supported").
struct QualityLimits {
  bool supported = false;
  std::uint64_t max_bandwidth_bps = 0;  ///< after protocol overhead
  Time min_delay_a = kTimeNever;        ///< smallest achievable fixed delay
  double residual_error_rate = 1.0;     ///< best error rate at this quality
};

/// Computes the limits a network with `traits` offers for `q`:
///   * reliability is directly supported only on an error-free medium
///     (otherwise transport protocols supply it with their own ack RMS,
///     §2.5);
///   * privacy is directly supported if the network is trusted or has
///     link-level encryption;
///   * authentication is directly supported only on a trusted network.
QualityLimits quality_limits(const NetworkTraits& traits, const rms::Quality& q);

/// Expected fraction of packets of `bytes` size damaged on a medium with
/// per-bit error rate `ber`: 1 - (1-ber)^(8*bytes).
double packet_error_probability(double ber, std::size_t bytes);

/// A medium's bit errors: with packet_error_probability(ber, size), marks
/// `p` corrupted and flips one real payload bit (so software checksums
/// genuinely fail). Returns true if the packet was hit.
bool corrupt_bits(Packet& p, double ber, Rng& rng);

}  // namespace dash::net
