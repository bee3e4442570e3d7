// CPU cost model for protocol processing.
//
// Paper §3.4/§4.1: upper-level RMS delay bounds include protocol processing
// time, and the CPU is scheduled by message deadlines. These constants give
// each protocol action a simulated CPU cost, charged to the host's
// CpuScheduler, so the security-elision bench (C3) and the RMS-levels bench
// (F3) see real contention. Values are loosely calibrated to a late-1980s
// workstation (a few MIPS): fixed per-message costs of tens of
// microseconds, per-byte costs of a fraction of a microsecond.
//
// There is one model: every layer charges a default-constructed CostModel,
// so send, receive and control paths agree by construction. Under an
// rt::Driver the CpuScheduler measures real task time instead of waiting
// out these durations; there they shape only the planned delay bounds.
#pragma once

#include "util/time.h"

namespace dash::netrms {

using dash::Time;

struct CostModel {
  /// Fixed cost of handling one message in a protocol layer (context
  /// switch, header parse/build, queue manipulation).
  Time per_message = usec(100);

  /// Data-touching costs per byte.
  Time per_byte_copy = nsec(50);       ///< one memory copy
  Time per_byte_checksum = nsec(100);  ///< software checksum
  Time per_byte_crypto = nsec(400);    ///< software encryption (each way)
  Time per_byte_mac = nsec(200);       ///< software MAC computation

  /// Cost of one message on the layer's send or receive path, given which
  /// data-touching passes it performs.
  Time message_cost(std::size_t bytes, bool checksum, bool crypto, bool mac) const {
    Time t = per_message + per_byte_copy * static_cast<Time>(bytes);
    if (checksum) t += per_byte_checksum * static_cast<Time>(bytes);
    if (crypto) t += per_byte_crypto * static_cast<Time>(bytes);
    if (mac) t += per_byte_mac * static_cast<Time>(bytes);
    return t;
  }
};

}  // namespace dash::netrms
