// The DASH subtransport layer (paper §3.2, §4.2, §4.3).
//
// One SubtransportLayer per host. "All upper-level network communication in
// DASH passes through the ST." It provides ST RMS to its clients,
// multiplexed onto network RMS, with:
//
//   * per-peer control channels (low-delay network RMS, one per direction
//     and network) running a request/reply protocol for authentication and
//     ST RMS establishment. A message about a stream rides that stream's
//     network; the handshake rides the peer's home network. They also carry
//     the path manager's probes: a ping names its network, and every ST
//     answers it over that network, with or without a path manager;
//   * network RMS caching — an idle network RMS is retained because hosts
//     communicate repeatedly with a small set of peers and network RMS
//     creation is slow (§4.2);
//   * upward multiplexing of several ST RMS onto one network RMS, with
//     piggybacking queues governed by minimum/maximum transmission
//     deadlines (§4.3.1);
//   * fragmentation and reassembly when the ST maximum message size
//     exceeds the network's — fragments are never retransmitted, and a
//     partial message is discarded when a later message arrives (§4.3);
//   * security with elision (§2.5): software encryption (privacy) and MACs
//     (authentication) are applied only when the chosen network does not
//     already provide the property;
//   * the fast-acknowledgement service (§3.2): a message flagged
//     ack-requested is acknowledged by the *receiving ST* over the control
//     channel, without waiting for the receiving client. Acks to one peer
//     over one network are batched: they leave as one control message when
//     the batch fills or a short hold expires.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netrms/fabric.h"
#include "sim/trace.h"
#include "rms/rms.h"
#include "st/control.h"
#include "st/wire.h"
#include "telemetry/metrics.h"
#include "util/buffer.h"
#include "util/crypto.h"
#include "util/hash.h"

namespace dash::st {

using rms::HostId;
using rms::Label;

struct StConfig {
  /// Queueing-delay budget the ST may spend waiting to piggyback
  /// additional messages (the difference between the ST RMS and network
  /// RMS delay bounds, §4.2). 0 turns piggybacking off: every component
  /// leaves in its own packet at once.
  Time piggyback_window = msec(2);

  /// How long an idle network RMS stays cached before deletion (§4.2). 0
  /// turns caching off: an idle network RMS is released at once.
  Time cache_idle_timeout = sec(5);

  /// How much network-RMS capacity to provision beyond the first ST RMS's
  /// need, so later streams can multiplex onto the same network RMS (§4.2:
  /// its capacity must cover the sum of the ST capacities). Deterministic
  /// streams are never over-provisioned (reservations are exact).
  std::uint64_t mux_provision_factor = 4;
};

class StRms;
class SubtransportLayer;

/// Ack ids at or above this bit are reserved for the ST's internal
/// handoff-buffer acknowledgements: a reliable stream under a
/// StreamObserver requests a fast ack for every message so the handoff
/// buffer can be trimmed, using `kHandoffAckBit | seq` when the client did
/// not ask for an ack itself. Client ack ids must stay below the bit.
inline constexpr std::uint64_t kHandoffAckBit = 1ull << 63;

/// Hooks for a per-host path manager (src/path). The ST consults the
/// observer at stream lifecycle points, on channel failure and when a probe
/// is answered; returning true from on_channel_failed means the observer
/// re-homed the stream (SubtransportLayer::rebind_stream) and the failure
/// must not propagate to the client. All hooks are optional; with no
/// observer attached the ST behaves exactly as before the path subsystem
/// existed.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;
  virtual void on_stream_created(StRms&) {}
  virtual void on_stream_released(StRms&) {}
  /// The network RMS under `rms` failed. Return true if the stream was
  /// rebound to another network; false lets the stream fail as usual.
  virtual bool on_channel_failed(StRms&, const Error&) { return false; }
  /// Establishment over the new network completed after a rebind.
  virtual void on_stream_rebound(StRms&) {}
  /// `peer` answered the ping `seq` sent by SubtransportLayer::probe over
  /// `fabric`.
  virtual void on_probe_reply(HostId /*peer*/, netrms::NetRmsFabric& /*fabric*/,
                              std::uint64_t /*seq*/) {}
};

/// The client handle for an ST RMS (sender side).
class StRms final : public rms::Rms {
 public:
  ~StRms() override;

  /// Sends a message and asks the peer's ST for a fast acknowledgement
  /// carrying `ack_id` (§3.2). The ack arrives via on_fast_ack.
  Status send_acked(rms::Message msg, std::uint64_t ack_id);

  /// Registers the fast-acknowledgement callback.
  void on_fast_ack(std::function<void(std::uint64_t)> cb) { ack_cb_ = std::move(cb); }

  /// Registers the downgrade callback: invoked when a path failover could
  /// only renegotiate weaker (but still acceptable) parameters, with the
  /// old and new actual parameter sets.
  void on_downgrade(std::function<void(const rms::Params&, const rms::Params&)> cb) {
    downgrade_cb_ = std::move(cb);
  }

  /// True once the peer's ST confirmed the establishment.
  bool established() const { return established_; }

  std::uint64_t id() const { return id_; }
  HostId peer() const { return peer_; }

  /// The original creation request; failover renegotiates against its
  /// acceptable set (§2.4).
  const rms::Request& request() const { return request_; }

  /// True between a rebind and the peer's re-establishment confirmation.
  bool rebinding() const { return rebinding_; }

  /// True if this stream applies software encryption / MACs (i.e. the
  /// network did not provide the property — exposed for tests/benches).
  bool encrypts() const { return (security_ & kEncrypted) != 0; }
  bool macs() const { return (security_ & kMac) != 0; }

 private:
  friend class SubtransportLayer;
  StRms(SubtransportLayer& st, std::uint64_t id, HostId peer, rms::Params params,
        Label target, std::uint8_t security, rms::Request request)
      : Rms(std::move(params)),
        st_(&st),
        id_(id),
        peer_(peer),
        target_(target),
        security_(security),
        request_(std::move(request)) {}

  Status do_send(rms::Message msg, Time transmission_deadline) override;
  void do_close() override;

  SubtransportLayer* st_;
  std::uint64_t id_;
  HostId peer_;
  Label target_;
  std::uint8_t security_;
  rms::Request request_;  ///< original request, kept for failover renegotiation
  bool established_ = false;
  bool rebinding_ = false;  ///< failover in progress: re-establishing
  std::uint64_t next_seq_ = 0;
  /// Minimum transmission deadlines (§4.3.1), one per stage: the CPU
  /// deadline of this stream's previous component, and the deadline of the
  /// previous packet that carried its data.
  Time last_passed_deadline_ = 0;
  Time last_packet_deadline_ = 0;
  std::uint64_t channel_id_ = 0;  ///< which data channel carries this stream
  std::function<void(std::uint64_t)> ack_cb_;
  std::function<void(const rms::Params&, const rms::Params&)> downgrade_cb_;
  struct PendingSend {
    rms::Message msg;
    std::uint64_t ack_id;
    bool acked;
    Time client_deadline;  ///< the sender's transmission deadline, or kTimeNever
  };
  std::deque<PendingSend> pending_;  ///< sends queued until established

  /// Handoff buffer (reliable streams under a StreamObserver): emitted
  /// messages not yet fast-acknowledged, replayed with their original
  /// sequence numbers after a failover. The receiver's preserved
  /// next_expected_seq drops already-delivered replays as stale, so the
  /// client sees no loss, duplication, or reordering across the switch.
  struct HandoffEntry {
    std::uint64_t seq;
    std::uint64_t ack_id;  ///< effective id (client's, or kHandoffAckBit|seq)
    rms::Message msg;
  };
  std::deque<HandoffEntry> handoff_;
  std::size_t handoff_bytes_ = 0;

  /// Submit times of in-flight acked sends awaiting their fast ack; only
  /// maintained while RTT metrics are attached. Per stream and capped (a
  /// peer that never acks must not grow it without bound): insertion order
  /// is tracked in ack_order_ and the oldest entry is evicted past the cap.
  /// Cleared when the stream closes.
  static constexpr std::size_t kMaxTrackedAcks = 1024;
  std::unordered_map<std::uint64_t, Time> ack_sent_at_;
  std::deque<std::uint64_t> ack_order_;
};

class SubtransportLayer {
 public:
  struct Stats {
    std::uint64_t st_rms_created = 0;
    std::uint64_t st_rms_rejected = 0;
    std::uint64_t net_rms_created = 0;
    std::uint64_t cache_hits = 0;        ///< idle network RMS reused (§4.2)
    std::uint64_t mux_joins = 0;         ///< multiplexed onto an active one
    std::uint64_t messages_sent = 0;     ///< client messages accepted
    std::uint64_t messages_delivered = 0;
    std::uint64_t network_messages = 0;  ///< packets handed to network RMS
    std::uint64_t components_sent = 0;   ///< client messages + fragments on wire
    std::uint64_t piggybacked = 0;       ///< components sharing a packet
    std::uint64_t fragments_sent = 0;
    std::uint64_t reassembled = 0;
    std::uint64_t partials_discarded = 0;  ///< §4.3 incomplete-message drops
    std::uint64_t partial_fragments_discarded = 0;  ///< fragments in those drops
    std::uint64_t partial_bytes_discarded = 0;      ///< payload bytes in those drops
    std::uint64_t stale_dropped = 0;       ///< sequencing drops at demux
    std::uint64_t unknown_dropped = 0;     ///< component for no known ST RMS
    std::uint64_t auth_drops = 0;          ///< MAC verification failures
    std::uint64_t bytes_encrypted = 0;
    std::uint64_t bytes_macced = 0;
    std::uint64_t fast_acks_sent = 0;       ///< acks, not kFastAck messages
    std::uint64_t fast_acks_delivered = 0;  ///< acks handed to a client callback
    std::uint64_t control_messages = 0;     ///< messages sent on control channels
    std::uint64_t control_retries = 0;   ///< control requests re-sent on timeout
    std::uint64_t auth_handshakes = 0;   ///< challenge/response exchanges run
    std::uint64_t auth_elided = 0;       ///< trusted network: handshake skipped
    std::uint64_t control_channels_reset = 0;  ///< failed control RMS recreated
    std::uint64_t cache_invalidations = 0;     ///< cached channels dropped as stale
    std::uint64_t streams_rebound = 0;         ///< failovers onto another network
    std::uint64_t rebind_failures = 0;         ///< rebind attempts that found no home
    std::uint64_t rebind_downgrades = 0;       ///< rebinds with weaker actual params
    std::uint64_t handoff_replayed = 0;        ///< messages re-emitted after failover
    std::uint64_t handoff_acks = 0;            ///< internal handoff-trim acks received
    std::uint64_t handoff_dropped = 0;         ///< handoff entries evicted (overflow)

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  SubtransportLayer(sim::Simulator& sim, HostId host, sim::CpuScheduler& cpu,
                    rms::PortRegistry& ports, StConfig config = {});
  ~SubtransportLayer();
  SubtransportLayer(const SubtransportLayer&) = delete;
  SubtransportLayer& operator=(const SubtransportLayer&) = delete;

  /// Makes a network (via its RMS fabric) available to this host's ST.
  /// The ST picks a suitable network per peer (§3.1: multiple types).
  /// Control messages name networks, so a host's network names must be
  /// unique: throws std::invalid_argument for a name already joined.
  void add_network(netrms::NetRmsFabric& fabric);

  /// The registered fabrics, in registration order. Fabrics are only ever
  /// appended, so a position never changes: the path manager keys its
  /// probe records by it.
  const std::vector<netrms::NetRmsFabric*>& networks() const { return fabrics_; }

  /// Attaches the path manager's stream observer (nullptr detaches). With
  /// an observer attached, reliable streams keep a handoff buffer and
  /// request internal fast acks; channel failures are offered to the
  /// observer before failing the stream.
  void set_stream_observer(StreamObserver* observer) { observer_ = observer; }
  StreamObserver* stream_observer() const { return observer_; }

  /// Re-homes a live ST RMS onto `fabric`: renegotiates §2.4 against the
  /// stream's original acceptable set, moves it to a channel on the new
  /// network, re-runs establishment with the peer, and (for reliable
  /// streams) replays unacknowledged messages from the handoff buffer.
  /// Fires the stream's downgrade callback when only weaker acceptable
  /// parameters fit. The stream keeps queueing sends throughout.
  Status rebind_stream(std::uint64_t stream_id, netrms::NetRmsFabric& fabric);

  /// Sends the path probe `seq` to `peer` over its control channel on
  /// `fabric` (DESIGN.md §11). The peer's ST answers over the same network,
  /// and the answer reaches the stream observer's on_probe_reply. False if
  /// no control channel could be opened on `fabric`.
  bool probe(HostId peer, netrms::NetRmsFabric& fabric, std::uint64_t seq);

  /// Sender-side stream lookup (path manager, tests); nullptr if unknown.
  StRms* find_stream(std::uint64_t stream_id);

  /// The fabric whose network currently carries `stream_id`'s data
  /// channel; nullptr if the stream or channel is gone.
  netrms::NetRmsFabric* stream_fabric(std::uint64_t stream_id) const;

  /// Creates an ST RMS to `target` (host + client port). The returned
  /// stream is usable immediately; messages queue until the peer's ST
  /// confirms establishment over the control channel.
  Result<std::unique_ptr<rms::Rms>> create(const rms::Request& request,
                                           const Label& target);

  HostId host() const { return host_; }
  sim::Simulator& simulator() { return sim_; }
  const Stats& stats() const { return stats_; }
  const StConfig& config() const { return config_; }

  /// Number of data network RMS currently active / cached (tests).
  std::size_t active_channels() const;
  std::size_t cached_channels() const;

  /// Fast acks accepted but still held in a batch, over all peers (tests).
  std::size_t held_fast_acks() const;

  /// Attaches an event trace: the ST records stream lifecycle, channel
  /// selection, piggyback flushes, fragmentation, and security decisions.
  /// Pass nullptr to detach. The trace must outlive the ST.
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  /// Publishes hot-path latency distributions ("st.<host>.delivery_ns",
  /// "st.<host>.fast_ack_rtt_ns") into `m`; pass nullptr to detach. The
  /// registry must outlive the ST. Counter-style stats are mirrored by
  /// telemetry::collect_st instead.
  void set_metrics(telemetry::MetricsRegistry* m);

  /// Forgets everything cached about `peer`: idle network RMS channels,
  /// authentication and control-channel state, and receiver-side demux /
  /// reassembly entries from it. Models the peer restarting — the cached
  /// state would otherwise poison the next conversation (§4.2 caching cuts
  /// both ways). Call between conversations, not with streams in flight.
  void invalidate_peer(HostId peer);

 private:
  friend class StRms;

  // ---- outgoing data channels (network RMS + piggyback queue) ----
  struct Channel {
    std::uint64_t id = 0;
    HostId peer = 0;
    std::unique_ptr<rms::Rms> net_rms;
    rms::Params net_params;
    netrms::NetRmsFabric* fabric = nullptr;
    std::uint64_t capacity_used = 0;  ///< sum of multiplexed ST capacities
    int ref_count = 0;

    // Piggybacking arena (§4.3.1): components are serialized back to back
    // into one allocation, so every component of a packet is a slice of it.
    // The arena leads with `headroom` bytes (the network RMS writes its
    // header there in place) and the 2-byte envelope whose count field is
    // patched at flush.
    Bytes queue;
    std::size_t headroom = 0;         ///< net_rms->send_headroom(), cached
    std::uint8_t queue_count = 0;
    Time queue_min_deadline = kTimeNever;  ///< deadline passed to the network
    Time queue_floor = 0;  ///< latest previous packet deadline of a queued stream
    Time queue_flush_at = kTimeNever;      ///< when the timer sends the queue
    std::vector<std::uint64_t> queue_streams;  ///< ST RMS ids with queued data
    Time last_enqueue = kTimeNever;            ///< recent-activity tracking
    sim::TimerHandle flush_timer;

    // Cache state (§4.2).
    bool cached = false;
    sim::TimerHandle cache_timer;
  };

  // ---- per-peer control state: plain data, no closures ----
  /// An unanswered control request, re-sent verbatim on each retry. The
  /// reply cancels the retry timer, so it leaves the pending set at once.
  struct PendingRequest {
    std::uint64_t stream_id = 0;  ///< the stream to establish; 0: the handshake
    Bytes request;                ///< encoded, sent verbatim on every attempt
    int attempts_left = 0;
    sim::TimerHandle retry_timer;
  };
  struct PeerState {
    HostId peer = 0;
    bool authenticated = false;       ///< a handshake verified the peer (elision is per create)
    bool peer_verified = false;       ///< receiver side: peer proved itself
    std::uint64_t next_request = 1;
    std::uint64_t auth_nonce = 0;
    std::vector<std::uint64_t> waiting;  ///< streams held for the handshake in flight
    std::unordered_map<std::uint64_t, PendingRequest> pending;  ///< by request id
    /// One outgoing control channel per network, created when a message
    /// first needs it (see send_on for which network a message takes).
    std::map<netrms::NetRmsFabric*, std::unique_ptr<rms::Rms>> control;
    // Fast acks held for one network (nullptr: the home network), leaving
    // together as one kFastAck. A batch never mixes networks, so each ack
    // shares its stream's fate: a batch bound for a dead network dies at
    // its hold, when send_on finds no channel that can carry it.
    struct AckBatch {
      FastAck held;
      sim::TimerHandle hold_timer;
    };
    std::map<netrms::NetRmsFabric*, AckBatch> ack_batches;
  };

  // ---- receiver-side demux entry for an incoming ST RMS ----
  struct DemuxEntry {
    HostId src = 0;
    std::uint64_t st_id = 0;
    Label target;
    std::uint8_t security = 0;
    std::uint64_t next_expected_seq = 0;
    /// The stream's network, named in its create request: the create reply
    /// and the stream's fast acks return over it.
    netrms::NetRmsFabric* ack_fabric = nullptr;
    // Reassembly (§4.3). Each fragment is a slice of the network packet it
    // arrived in (the packet storage stays alive as long as the slice
    // does); the payload is materialized once, at final delivery.
    bool partial = false;
    std::uint64_t partial_seq = 0;
    std::uint16_t partial_count = 0;
    std::uint16_t partial_received = 0;
    std::vector<Buffer> partial_fragments;
    Time partial_sent_at = -1;
    /// Deferred fast ack for the reassembly in progress. Fragments are
    /// never retransmitted, so a fragmented component is acknowledged only
    /// when its last fragment lands — acking on the first fragment (the
    /// one carrying kAckRequest) would confirm a message that loss of any
    /// later fragment can still kill.
    bool partial_ack_requested = false;
    std::uint64_t partial_ack_id = 0;
  };

  // creation pipeline
  struct StParamsPlan {
    rms::Params actual;
    rms::Request net_request;
    std::uint8_t security = 0;
  };
  Result<StParamsPlan> plan_params(netrms::NetRmsFabric& fabric,
                                   const rms::Request& request) const;
  /// The peer's home network: the first attached network that is up,
  /// trusted first (§2.5 case 3 elides the handshake there). The handshake
  /// rides it, and the peer's trust is judged by it. nullptr if none.
  netrms::NetRmsFabric* home_fabric(HostId peer) const;
  PeerState& peer_state(HostId peer);
  /// Sends the create requests of the streams in `ps.waiting` that still exist.
  void send_creates(PeerState& ps);
  /// One attempt of a pending request: (re)sends it and arms its retry, or
  /// settles it as failed when no attempt is left.
  void transmit_request(HostId peer, std::uint64_t req_id);
  /// Settles a pending request with the reply to it: stops its retries,
  /// then ends the handshake (`stream_id` 0) or the stream's establishment.
  /// A no-op unless `req_id` is pending for exactly `stream_id`, so a reply
  /// settles only its own kind of request.
  void complete_request(PeerState& ps, std::uint64_t req_id, std::uint64_t stream_id,
                        bool ok);
  Result<Channel*> obtain_channel(HostId peer, netrms::NetRmsFabric& fabric,
                                  const StParamsPlan& plan);
  void establish(StRms& rms);

  // send path. `client_deadline` is the transmission deadline the client
  // passed to send (kTimeNever: none): it ends the component's piggyback
  // wait, but never makes a CPU or packet deadline earlier than the
  // stream's negotiated bound gives.
  Status submit(StRms& rms, rms::Message msg, std::uint64_t ack_id, bool acked,
                Time client_deadline);
  /// Records when `ack_id` left, for the fast-ack RTT, keeping at most
  /// StRms::kMaxTrackedAcks entries.
  void track_ack(StRms& rms, std::uint64_t ack_id);
  void emit(StRms& rms, rms::Message msg, std::uint64_t ack_id, bool acked,
            Time client_deadline);
  /// emit() minus sequence allocation and handoff recording: puts one
  /// component on the wire under an explicit sequence number (used both by
  /// fresh sends and by handoff replay after a rebind).
  void emit_component(StRms& rms, rms::Message msg, std::uint64_t ack_id,
                      bool acked, std::uint64_t seq, Time client_deadline);
  /// Drops handoff entries up to and including the one acknowledged by
  /// `ack_id` (cumulative: in-order delivery means everything earlier was
  /// delivered too).
  void trim_handoff(StRms& rms, std::uint64_t ack_id);
  void replay_handoff(StRms& rms);
  /// Serializes one component into `w`, encrypting the body in place and
  /// patching the MAC field (it precedes the body on the wire) afterwards.
  /// `c.payload` aliases the client's message: this gather-write is the
  /// send path's only payload copy.
  void serialize_component(Writer& w, const Component& c, const Key& key);
  /// Queues one component on the channel's piggyback arena. The arena
  /// leaves when it is full, at the earliest of its components' bound
  /// deadlines and client deadlines, when the window ends, or at once on
  /// an idle channel; a zero window sends each component alone. The packet
  /// carries the earliest bound deadline, never a client deadline, and the
  /// arena leaves first when sharing it would make that deadline later
  /// than the more urgent side's own.
  void enqueue_component(Channel& ch, const Component& c, const Key& key,
                         Time eff_deadline, Time client_deadline);
  void flush_channel(Channel& ch);
  /// Sends one data packet: the `len` bytes of `arena` from `start`, which
  /// begin with the channel's headroom gap for the network RMS header.
  void send_packet(Channel& ch, const Buffer& arena, std::size_t start, std::size_t len,
                   Time deadline);
  /// Clamps a packet deadline so it is monotone for every ST RMS whose data
  /// the packet carries (§4.3.1 minimum transmission deadlines): it is
  /// raised to each carried stream's previous packet deadline, then
  /// recorded as theirs. The streams' CPU-stage clamps are not touched, and
  /// enqueue_component keeps a component out of a packet that its stream's
  /// clamp would raise, so a lazy companion never makes an urgent stream's
  /// later messages lazy.
  Time clamp_packet_deadline(Time candidate,
                             const std::vector<std::uint64_t>& stream_ids);
  /// Sends a control message to `ps.peer` over its control channel on
  /// `fabric`. The one routing rule: a message about a stream passes the
  /// stream's network, so it shares the stream's fate; the handshake passes
  /// nullptr and rides the home network, and a probe passes the network it
  /// measures. Every control message leaves through here. False if no
  /// control channel could be opened.
  bool send_on(PeerState& ps, netrms::NetRmsFabric* fabric, Bytes payload);
  netrms::NetRmsFabric* fabric_named(const std::string& name) const;

  // fast acks (§3.2)
  /// Adds one ack to `peer`'s batch for `fabric`; the batch leaves when it
  /// fills or its hold expires.
  void queue_fast_ack(HostId peer, netrms::NetRmsFabric* fabric, std::uint64_t st_id,
                      std::uint64_t ack_id);
  void flush_fast_acks(PeerState& ps, netrms::NetRmsFabric* fabric,
                       PeerState::AckBatch& batch);
  /// The sender's side of one acknowledged (st id, ack id) pair from `src`.
  void handle_fast_ack(HostId src, std::uint64_t st_id, std::uint64_t ack_id);

  // receive path
  void on_control_message(rms::Message msg);
  void handle_control(rms::Message msg);
  void on_data_message(rms::Message msg);
  void handle_data(rms::Message msg);
  void deliver_component(DemuxEntry& entry, Buffer data, Time sent_at);
  /// Drops an in-progress reassembly (§4.3), accounting for the fragments
  /// and bytes thrown away.
  void discard_partial(DemuxEntry& entry);

  // teardown
  void release_stream(StRms& rms);
  /// Removes `rms` from its data channel's accounting and caches or
  /// releases the channel when the last stream leaves. Shared by close and
  /// rebind (rebind detaches without sending kDelete: the stream lives on).
  void detach_channel(StRms& rms);
  void release_channel(Channel& ch);
  /// Records a trace event. `detail` is a callable that builds the detail
  /// string; it runs only when a trace is attached and enabled, so tracing
  /// that is off formats nothing.
  template <typename Detail>
  void trace(const char* category, Detail&& detail) {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->record(sim_.now(), category, std::forward<Detail>(detail)());
    }
  }
  void expire_channel(std::uint64_t channel_id);
  void cancel_channel_timers(Channel& ch);
  /// Drops `peer`'s idle cached channels on `fabric` (nullptr: on every
  /// network), counting each as a cache invalidation.
  void drop_cached_channels(HostId peer, const netrms::NetRmsFabric* fabric);
  /// Cancels `ps`'s control retransmissions and fast-ack holds.
  void cancel_peer_timers(PeerState& ps);
  void fail_channel_streams(std::uint64_t channel_id, const Error& e);

  sim::Simulator& sim_;
  HostId host_;
  sim::CpuScheduler& cpu_;
  rms::PortRegistry& ports_;
  StConfig config_;
  std::vector<netrms::NetRmsFabric*> fabrics_;

  rms::Port control_port_;
  rms::Port data_port_;

  // Hot path: every sent or received component looks these up. The
  // unordered replacements are node-based, so references held across a CPU
  // callback stay valid through rehash.
  std::unordered_map<HostId, PeerState> peers_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Channel>> channels_;
  std::unordered_map<std::uint64_t, StRms*> streams_;  ///< sender-side, by id
  std::unordered_map<std::pair<HostId, std::uint64_t>, DemuxEntry, PairHash> demux_;
  std::uint64_t next_st_id_ = 1;
  std::uint64_t next_channel_id_ = 1;
  Stats stats_;
  sim::Trace* trace_ = nullptr;
  StreamObserver* observer_ = nullptr;
  telemetry::Histogram* delivery_delay_hist_ = nullptr;
  telemetry::Histogram* fast_ack_rtt_hist_ = nullptr;
};

}  // namespace dash::st
