// User-level RMS (paper §3.4).
//
// "User-level RMS: this spans user processes. The moments of message
// sending and delivery are defined by the user processes, and end-process
// CPU time is included in the RMS delay. Scheduling of these user
// processes must be deadline-based."
//
// A UserRms wraps an ST RMS and extends its delay bound by two declared
// processing stages: the sending process's CPU before the message enters
// the ST, and the receiving process's CPU before the message counts as
// delivered. Both stages run on the hosts' CPU schedulers with deadlines
// derived from the user-level bound — the recursion of §4.1 one level up
// from where the ST already applies it.
#pragma once

#include <functional>
#include <memory>

#include "st/st.h"

namespace dash::userrms {

using rms::HostId;
using rms::Label;

/// Declared per-message CPU costs of the user processes at each end.
struct UserConfig {
  Time send_processing = usec(200);
  Time receive_processing = usec(200);
};

/// The receiving user process: owns the port, charges its declared
/// processing time on the host CPU (deadline-scheduled), then invokes the
/// application handler. Delivery — for delay accounting — is when the
/// handler runs, matching §3.4's definition; a client that checks the
/// bound feeds a telemetry::GuaranteeLedger from its handler.
class UserEndpoint {
 public:
  struct Stats {
    std::uint64_t delivered = 0;
  };

  /// `bound` is the user-level delay bound this endpoint's streams carry
  /// (used as the receive-processing deadline: sent_at + bound).
  UserEndpoint(sim::CpuScheduler& cpu, rms::PortRegistry& ports, rms::PortId port_id,
               UserConfig config, rms::DelayBound bound,
               std::function<void(rms::Message)> handler)
      : cpu_(cpu),
        ports_(ports),
        port_id_(port_id),
        config_(config),
        bound_(bound),
        handler_(std::move(handler)) {
    ports_.bind(port_id_, &port_);
    port_.set_handler([this](rms::Message m) { on_arrival(std::move(m)); });
  }

  ~UserEndpoint() { ports_.unbind(port_id_); }
  UserEndpoint(const UserEndpoint&) = delete;
  UserEndpoint& operator=(const UserEndpoint&) = delete;

  const Stats& stats() const { return stats_; }

 private:
  void on_arrival(rms::Message m) {
    // The receiving process's CPU time is part of the user-level delay;
    // its scheduling deadline is the message's end-to-end deadline (§4.1).
    const Time deadline = m.sent_at >= 0 && bound_.a != kTimeNever
                              ? m.sent_at + bound_.bound_for(m.size())
                              : kTimeNever;
    cpu_.submit(deadline, config_.receive_processing, [this, m = std::move(m)]() mutable {
      ++stats_.delivered;
      if (handler_) handler_(std::move(m));
    });
  }

  sim::CpuScheduler& cpu_;
  rms::PortRegistry& ports_;
  rms::PortId port_id_;
  UserConfig config_;
  rms::DelayBound bound_;
  std::function<void(rms::Message)> handler_;
  rms::Port port_;
  Stats stats_;
};

/// The sending side: charges the sending process's CPU (deadline-based),
/// then hands the message to the underlying ST RMS.
class UserRms final : public rms::Rms {
 public:
  /// Creates a user-level RMS on top of `st`. The user-level bound in
  /// `request` is reduced by the two processing stages before the ST is
  /// asked; the returned stream's actual bound includes them again, so
  /// rms::compatible holds against the caller's acceptable set.
  static Result<std::unique_ptr<UserRms>> create(st::SubtransportLayer& st,
                                                 sim::CpuScheduler& cpu,
                                                 const rms::Request& request,
                                                 const Label& target,
                                                 UserConfig config = {});

  /// The bound the matching UserEndpoint must be configured with.
  const rms::DelayBound& user_bound() const { return params().delay; }

 private:
  UserRms(sim::Simulator& sim, sim::CpuScheduler& cpu,
          std::unique_ptr<rms::Rms> inner, rms::Params params, UserConfig config)
      : Rms(std::move(params)),
        sim_(sim),
        cpu_(cpu),
        inner_(std::move(inner)),
        config_(config) {}

  Status do_send(rms::Message msg, Time transmission_deadline) override;
  void do_close() override { inner_->close(); }

  sim::Simulator& sim_;
  sim::CpuScheduler& cpu_;
  std::unique_ptr<rms::Rms> inner_;
  UserConfig config_;
};

}  // namespace dash::userrms
