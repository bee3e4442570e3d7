#include "userrms/user_rms.h"

#include <algorithm>

namespace dash::userrms {

Result<std::unique_ptr<UserRms>> UserRms::create(st::SubtransportLayer& st,
                                                 sim::CpuScheduler& cpu,
                                                 const rms::Request& request,
                                                 const Label& target,
                                                 UserConfig config) {
  const Time stages = config.send_processing + config.receive_processing;

  // Derive the ST request: the user processes consume `stages` of the
  // fixed delay budget (the same budget split §4.1 describes).
  rms::Request st_request = request;
  for (rms::Params* p : {&st_request.desired, &st_request.acceptable}) {
    if (p->delay.a != kTimeNever) {
      p->delay.a = std::max<Time>(p->delay.a - stages, 1);
    }
  }
  if (request.acceptable.delay.a != kTimeNever &&
      request.acceptable.delay.a <= stages) {
    return make_error(Errc::kIncompatibleParams,
                      "acceptable delay bound smaller than the declared "
                      "user-process CPU time");
  }

  auto inner = st.create(st_request, target);
  if (!inner) return inner.error();

  // The user-level actual bound re-adds the processing stages, keeping the
  // client's requested bound when it is looser (slack stays schedulable).
  rms::Params actual = inner.value()->params();
  const Time floor_a =
      actual.delay.a == kTimeNever ? kTimeNever : actual.delay.a + stages;
  actual.delay.a = request.desired.delay.a == kTimeNever
                       ? floor_a
                       : std::max(request.desired.delay.a, floor_a);
  if (!rms::compatible(actual, request.acceptable)) {
    return make_error(Errc::kIncompatibleParams,
                      "achievable user-level parameters incompatible with "
                      "the acceptable set");
  }

  return std::unique_ptr<UserRms>(new UserRms(st.simulator(), cpu,
                                              std::move(inner).value(),
                                              std::move(actual), config));
}

Status UserRms::do_send(rms::Message msg, Time transmission_deadline) {
  // Sending is defined as the moment the user process starts (§3.4): stamp
  // now, then charge the sending process's CPU with the message's
  // user-level deadline before the ST sees it. The client's transmission
  // deadline passes through to the ST, where it caps the message's wait
  // for piggyback company (§4.3.1).
  if (msg.sent_at < 0) msg.sent_at = sim_.now();
  const Time bound = params().delay.bound_for(msg.size());
  const Time deadline = bound == kTimeNever ? kTimeNever : msg.sent_at + bound;
  cpu_.submit(deadline, config_.send_processing,
              [this, msg = std::move(msg), transmission_deadline]() mutable {
                (void)inner_->send(std::move(msg), transmission_deadline);
              });
  return Status::ok_status();
}

}  // namespace dash::userrms
