// A video phone on a token ring — the paper's closing vision (§1:
// "interactive high-bandwidth traffic such as digitized audio and video").
//
// Two stations on a deterministic token ring run a duplex call: voice and
// video each direction, established as §3.3 sessions, with user-level RMS
// semantics (§3.4) — the measured delay includes the codec's CPU time at
// both ends, scheduled by deadline, and a guarantee ledger counts the
// frames that missed their bound. A file transfer shares the ring to prove
// the isolation.
#include <cstdio>

#include "example_util.h"
#include "net/token_ring.h"
#include "rkom/rkom.h"
#include "session/session.h"
#include "telemetry/ledger.h"
#include "transport/stream.h"
#include "userrms/user_rms.h"
#include "util/stats.h"
#include "workload/workload.h"

using namespace dash;

namespace {

/// A media-friendly ring: 3 ms of token holding lets a whole video frame
/// (<= 1500 B at 4 Mb/s) go out in one visit; worst-case rotation with 4
/// stations is ~12 ms, comfortably inside the voice bound.
std::unique_ptr<net::TokenRingNetwork> studio_ring(sim::Simulator& sim) {
  net::TokenRingNetwork::RingConfig ring_cfg;
  ring_cfg.token_holding_time = msec(3);
  return std::make_unique<net::TokenRingNetwork>(
      sim, net::token_ring_traits("studio-ring", 4, ring_cfg), 1, ring_cfg);
}

}  // namespace

int main() {
  node::World<net::TokenRingNetwork> ring({studio_ring}, node::host_ids(4));
  examples::print_header("Video phone between stations 1 and 2 (token ring)");

  // --- media streams as user-level RMS (codec CPU inside the bound) ----
  userrms::UserConfig codec;
  codec.send_processing = usec(400);     // encode
  codec.receive_processing = usec(600);  // decode + render

  struct MediaStream {
    std::unique_ptr<userrms::UserRms> rms;
    std::unique_ptr<userrms::UserEndpoint> endpoint;
    Samples delay_ms;
    const telemetry::StreamAccount* account = nullptr;
    const char* name;
  };
  telemetry::GuaranteeLedger ledger;  // one account per stream, keyed by its port

  auto open_media = [&](rms::HostId from, rms::HostId to, rms::PortId port,
                        const rms::Request& request, const char* name) {
    MediaStream media;
    media.name = name;
    auto created = userrms::UserRms::create(*ring.node(from).st, *ring.node(from).cpu,
                                            request, {to, port}, codec);
    if (!created) {
      std::printf("%s rejected: %s\n", name, created.error().message.c_str());
      std::exit(1);
    }
    media.rms = std::move(created).value();
    media.account = &ledger.open(port, name, media.rms->params(), from, to);
    return media;
  };

  // Voice: 64 kb/s; video: ~290 kb/s (1.2 KB frames at 30 fps, sized so a
  // frame fits one token visit).
  auto video_request = workload::window_graphics_request();
  video_request.desired.delay.a = msec(60);
  video_request.desired.max_message_size = 1500;
  video_request.desired.capacity = 64 * 1024;

  MediaStream voice_up = open_media(1, 2, 70, workload::voice_request(msec(40)), "voice 1->2");
  MediaStream voice_down = open_media(2, 1, 71, workload::voice_request(msec(40)), "voice 2->1");
  MediaStream video_up = open_media(1, 2, 72, video_request, "video 1->2");
  MediaStream video_down = open_media(2, 1, 73, video_request, "video 2->1");

  auto attach_endpoint = [&](MediaStream& media, rms::HostId host, rms::PortId port) {
    auto* samples = &media.delay_ms;
    sim::Simulator* simp = &ring.sim;
    media.endpoint = std::make_unique<userrms::UserEndpoint>(
        *ring.node(host).cpu, ring.node(host).ports, port, codec,
        media.rms->user_bound(), [samples, simp, &ledger, port](rms::Message m) {
          const Time delay = simp->now() - m.sent_at;
          samples->add(to_millis(delay));
          ledger.on_delivery(port, delay, m.size());
        });
  };
  attach_endpoint(voice_up, 2, 70);
  attach_endpoint(voice_down, 1, 71);
  attach_endpoint(video_up, 2, 72);
  attach_endpoint(video_down, 1, 73);

  std::printf("voice bound: %s (codec included)   video bound: %s\n",
              format_time(voice_up.rms->params().delay.a).c_str(),
              format_time(video_up.rms->params().delay.a).c_str());

  // --- sources ----------------------------------------------------------
  auto voice_feed = [](MediaStream& media) {
    return [&media](Bytes f) {
      rms::Message m;
      m.data = std::move(f);
      (void)media.rms->send(std::move(m));
    };
  };
  workload::PacedSource mic1(ring.sim, workload::kVoiceFrameInterval,
                             workload::kVoiceFrameBytes, voice_feed(voice_up));
  workload::PacedSource mic2(ring.sim, workload::kVoiceFrameInterval,
                             workload::kVoiceFrameBytes, voice_feed(voice_down));
  workload::VideoSource cam1(ring.sim, msec(33), 1200, 0.2, 5, voice_feed(video_up));
  workload::VideoSource cam2(ring.sim, msec(33), 1200, 0.2, 6, voice_feed(video_down));

  // --- the competing file transfer (stations 3 -> 4) -------------------
  transport::StreamConfig bulk_cfg;
  bulk_cfg.receiver_flow_control = false;
  bulk_cfg.message_size = 1200;
  transport::StreamReceiver bulk_rx(*ring.node(4).st, ring.node(4).ports, 60, bulk_cfg);
  std::size_t bulk_bytes = 0;
  bulk_rx.on_data([&](Bytes b) { bulk_bytes += b.size(); });
  transport::StreamSender bulk_tx(*ring.node(3).st, ring.node(3).ports, {4, 60},
                                  bulk_cfg,
                                  transport::bulk_data_request(48 * 1024, 1200));
  auto feed = std::make_shared<std::function<void()>>();
  *feed = [&] {
    while (bulk_tx.write(patterned_bytes(4096, bulk_bytes)).ok()) {
    }
  };
  bulk_tx.on_writable([feed] { (*feed)(); });
  (*feed)();

  ring.sim.after(msec(300), [&] {  // start media after establishment
    mic1.start();
    mic2.start();
    cam1.start();
    cam2.start();
  });
  ring.sim.run_until(sec(15));
  mic1.stop();
  mic2.stop();
  cam1.stop();
  cam2.stop();
  ring.sim.run_for(msec(300));

  examples::print_header("Call quality (codec time included in every figure)");
  std::printf("%-12s %8s %9s %9s %9s %10s\n", "stream", "frames", "mean ms",
              "p99 ms", "max ms", "misses");
  for (MediaStream* m : {&voice_up, &voice_down, &video_up, &video_down}) {
    std::printf("%-12s %8zu %9.2f %9.2f %9.2f %10llu\n", m->name,
                m->delay_ms.count(), m->delay_ms.mean(), m->delay_ms.percentile(0.99),
                m->delay_ms.max(),
                static_cast<unsigned long long>(m->account->misses));
  }
  std::printf("\nfile transfer moved %.2f MB over the same ring; token rotations: %llu\n",
              static_cast<double>(bulk_bytes) / 1e6,
              static_cast<unsigned long long>(ring.network->token_rotations()));
  return 0;
}
