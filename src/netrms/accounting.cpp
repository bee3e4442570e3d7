#include "netrms/accounting.h"

#include "netrms/admission.h"

namespace dash::netrms {

void Accounting::on_create(std::uint64_t stream, rms::HostId owner,
                           const rms::Params& params, Time now) {
  Entry e;
  e.owner = owner;
  e.opened_at = now;
  switch (params.delay.type) {
    case rms::BoundType::kDeterministic:
      e.reserved_kbps = AdmissionController::committed_bps(params) / 1e3;
      break;
    case rms::BoundType::kStatistical:
      e.reserved_kbps = AdmissionController::effective_bps(params) / 1e3;
      break;
    case rms::BoundType::kBestEffort:
      e.reserved_kbps = 0.0;
      break;
  }
  entries_[stream] = e;
}

void Accounting::on_send(std::uint64_t stream, std::size_t bytes) {
  auto it = entries_.find(stream);
  if (it != entries_.end()) it->second.bytes_sent += bytes;
}

void Accounting::on_close(std::uint64_t stream, Time now) {
  auto it = entries_.find(stream);
  if (it == entries_.end() || !it->second.open) return;
  it->second.open = false;
  it->second.closed_at = now;
}

double Accounting::connect_charge(const Entry& e, Time now) const {
  const Time end = e.open ? now : e.closed_at;
  const double seconds = to_seconds(end - e.opened_at);
  return seconds * (tariff_.base_per_second +
                    tariff_.per_reserved_kbps_second * e.reserved_kbps);
}

Accounting::Invoice Accounting::invoice(std::uint64_t stream, Time now) const {
  Invoice inv;
  auto it = entries_.find(stream);
  if (it == entries_.end()) return inv;
  const Entry& e = it->second;
  inv.owner = e.owner;
  inv.setup = tariff_.setup;
  inv.bytes = tariff_.per_kilobyte * static_cast<double>(e.bytes_sent) / 1024.0;
  inv.connect = connect_charge(e, now);
  return inv;
}

double Accounting::bill(rms::HostId owner, Time now) const {
  double total = 0.0;
  for (const auto& [stream, e] : entries_) {
    if (e.owner != owner) continue;
    total += invoice(stream, now).total();
  }
  return total;
}

}  // namespace dash::netrms
