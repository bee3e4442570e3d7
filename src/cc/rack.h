// RACK-style time-based loss detection (DESIGN.md §13).
//
// A send is declared lost when a *more recently transmitted* packet has
// been acknowledged and a reordering window has passed — time and delivery
// evidence, not duplicate counting or a fixed timeout. The reordering
// window scales with the smoothed RTT so a little cross-path skew never
// triggers a spurious retransmission, while a genuine loss is recovered a
// fraction of an RTT after the next ack instead of a full RTO later.
//
// The state is deliberately tiny — the newest delivered send time — so
// transport::StreamSender embeds one per stream; the caller owns the
// per-sequence send times.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/time.h"

namespace dash::cc {

/// Reordering window = fraction × SRTT, clamped to [min, max].
inline constexpr double kReoWndFraction = 0.5;
inline constexpr Time kMinReoWnd = msec(1);
inline constexpr Time kMaxReoWnd = msec(100);

class RackState {
 public:
  /// Records a delivery of a packet last transmitted at `sent_at`.
  /// Returns true if the rack point advanced (a newer send confirmed
  /// delivered — time to re-examine older outstanding sends).
  bool on_delivered(Time sent_at) {
    if (sent_at <= xmit_time_) return false;
    xmit_time_ = sent_at;
    return true;
  }

  Time reo_wnd(Time srtt) const {
    const auto w = static_cast<Time>(kReoWndFraction *
                                     static_cast<double>(std::max<Time>(srtt, 0)));
    return std::clamp(w, kMinReoWnd, kMaxReoWnd);
  }

  /// A send last transmitted at `last_sent` is deemed lost once the rack
  /// point has moved more than a reordering window past it.
  bool lost(Time last_sent, Time srtt) const {
    return xmit_time_ >= 0 && last_sent + reo_wnd(srtt) < xmit_time_;
  }

  /// Newest delivered transmission time; -1 before the first delivery.
  Time xmit_time() const { return xmit_time_; }

 private:
  Time xmit_time_ = -1;
};

}  // namespace dash::cc
