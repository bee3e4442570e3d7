// Round-trip-time estimation for the stream protocol's adaptive
// retransmission timeout (transport/stream.h): SRTT/RTTVAR smoothing with
// the RFC 6298 coefficients. The caller feeds only unambiguous samples.
#pragma once

#include "util/time.h"

namespace dash::transport {

/// RFC 6298 smoothed RTT and variance. Feed only unambiguous samples
/// (first-transmission acks — Karn's rule); the backoff of an armed
/// retransmission timer is the caller's business.
class RttEstimator {
 public:
  void sample(Time rtt) {
    if (rtt < 0) return;
    if (!valid_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      valid_ = true;
      return;
    }
    const Time err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }

  bool valid() const { return valid_; }
  Time srtt() const { return srtt_; }
  Time rttvar() const { return rttvar_; }

  /// RFC 6298 RTO = SRTT + 4·RTTVAR, clamped to [min_rto, max_rto];
  /// `fallback` (the configured static timeout) until the first sample.
  Time rto(Time min_rto, Time max_rto, Time fallback) const {
    if (!valid_) return fallback;
    const Time raw = srtt_ + 4 * rttvar_;
    if (raw < min_rto) return min_rto;
    if (raw > max_rto) return max_rto;
    return raw;
  }

 private:
  bool valid_ = false;
  Time srtt_ = 0;
  Time rttvar_ = 0;
};

}  // namespace dash::transport
