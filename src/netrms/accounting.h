// RMS accounting (paper §2.4 and §5).
//
// "If there is accounting, the creator owns the RMS in the sense of being
// responsible for paying for its use" (§2.4). "Clients may have better
// control over network costs. RMS parameters correspond roughly to the
// network resources (buffer space and bandwidth) consumed. A network might
// charge a fixed RMS setup cost, plus a charge determined by the RMS
// parameters, the number of bytes sent, and the RMS connect time" (§5).
//
// The tariff below implements exactly that pricing model. Charges accrue
// in abstract cost units; what a unit is worth is the operator's business.
#pragma once

#include <cstdint>
#include <map>

#include "rms/message.h"
#include "rms/params.h"

namespace dash::netrms {

/// Pricing of one network's RMS service.
struct Tariff {
  /// Fixed charge per RMS creation (the setup protocol's cost).
  double setup = 10.0;

  /// Per byte actually sent.
  double per_kilobyte = 1.0;

  /// Per second of connect time, scaled by the reserved resources: the
  /// implied bandwidth C/D (bits/s) for deterministic streams, the
  /// effective bandwidth for statistical ones, zero reservation for
  /// best-effort (which pay a small base connect rate instead).
  double per_reserved_kbps_second = 0.1;
  double base_per_second = 0.05;
};

/// Tracks per-owner charges for the RMS of one provider.
class Accounting {
 public:
  explicit Accounting(Tariff tariff = {}) : tariff_(tariff) {}

  /// Called at RMS creation; `owner` is the creating host (§2.4).
  void on_create(std::uint64_t stream, rms::HostId owner, const rms::Params& params,
                 Time now);

  /// Called per message sent on the stream.
  void on_send(std::uint64_t stream, std::size_t bytes);

  /// Called when the stream closes; settles the connect-time charge.
  void on_close(std::uint64_t stream, Time now);

  /// Total accrued charge for `owner`, including open streams' connect
  /// time up to `now`.
  double bill(rms::HostId owner, Time now) const;

  /// Itemized charge of one (possibly still open) stream.
  struct Invoice {
    rms::HostId owner = 0;
    double setup = 0.0;
    double bytes = 0.0;
    double connect = 0.0;
    double total() const { return setup + bytes + connect; }
  };
  Invoice invoice(std::uint64_t stream, Time now) const;

  const Tariff& tariff() const { return tariff_; }

 private:
  struct Entry {
    rms::HostId owner = 0;
    Time opened_at = 0;
    double reserved_kbps = 0.0;
    std::uint64_t bytes_sent = 0;
    bool open = true;
    Time closed_at = 0;
  };

  double connect_charge(const Entry& e, Time now) const;

  Tariff tariff_;
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace dash::netrms
