// A network window system (paper §2.5, citing Gettys' X-on-UNIX paper).
//
// "Communication involving a human user interface can tolerate a moderate
// amount of delay... The RMS from user to application carries mouse and
// keyboard events, and can have low capacity. The RMS in the opposite
// direction carries graphic information, and generally requires higher
// capacity."
//
// Host 1 is the user's workstation, host 2 the application. Input events
// flow up on a low-capacity RMS; bursty graphics flow down on a
// high-capacity one. We measure event latency while graphics bursts
// compete for the segment.
#include <cstdio>

#include "example_util.h"
#include "util/stats.h"
#include "workload/workload.h"

using namespace dash;

int main() {
  auto lan = node::ethernet_world(/*hosts=*/2);

  examples::print_header("Remote window system: events up, graphics down");

  // Input events: workstation (1) -> application (2).
  rms::Port event_inbox;
  lan.node(2).ports.bind(80, &event_inbox);
  auto events = lan.node(1).st->create(workload::window_event_request(),
                                       rms::Label{2, 80});
  if (!events) {
    std::printf("event RMS rejected: %s\n", events.error().message.c_str());
    return 1;
  }

  // Graphics: application (2) -> workstation (1).
  rms::Port graphics_inbox;
  lan.node(1).ports.bind(81, &graphics_inbox);
  auto graphics = lan.node(2).st->create(workload::window_graphics_request(),
                                         rms::Label{1, 81});
  if (!graphics) {
    std::printf("graphics RMS rejected: %s\n", graphics.error().message.c_str());
    return 1;
  }

  std::printf("events:   %s\n", rms::to_string(events.value()->params()).c_str());
  std::printf("graphics: %s\n", rms::to_string(graphics.value()->params()).c_str());

  // The application echoes each event with a graphics update (damage
  // repaint), plus periodic bursts of background redraw.
  Samples event_delay_ms, paint_delay_ms;
  std::uint64_t graphics_bytes = 0;

  event_inbox.set_handler([&](rms::Message m) {
    event_delay_ms.add(to_millis(lan.sim.now() - m.sent_at));
    rms::Message paint;
    paint.data = patterned_bytes(2048, static_cast<std::uint64_t>(m.sent_at));
    (void)graphics.value()->send(std::move(paint));
  });
  graphics_inbox.set_handler([&](rms::Message m) {
    graphics_bytes += m.size();
    paint_delay_ms.add(to_millis(lan.sim.now() - m.sent_at));
  });

  // User input: Poisson mouse/keyboard events, ~30 per second.
  workload::PoissonSource input(lan.sim, 1.0 / 30.0, 48, 7, [&](Bytes e) {
    rms::Message m;
    m.data = std::move(e);
    (void)events.value()->send(std::move(m));
  });

  // Background redraw bursts: 16 KB scattered every 250 ms.
  workload::OnOffSource redraw(lan.sim, msec(4), 1400, msec(60), msec(190), 9,
                               [&](Bytes frame) {
                                 rms::Message m;
                                 m.data = std::move(frame);
                                 (void)graphics.value()->send(std::move(m));
                               });

  input.start();
  redraw.start();
  lan.sim.run_until(sec(30));
  input.stop();
  redraw.stop();
  lan.sim.run_for(sec(1));

  examples::print_header("Interactive latency under graphics load");
  std::printf("input events delivered:  %zu\n", event_delay_ms.count());
  std::printf("event delay   mean %.2f ms   p99 %.2f ms   max %.2f ms\n",
              event_delay_ms.mean(), event_delay_ms.percentile(0.99),
              event_delay_ms.max());
  std::printf("paint delay   mean %.2f ms   p99 %.2f ms   max %.2f ms\n",
              paint_delay_ms.mean(), paint_delay_ms.percentile(0.99),
              paint_delay_ms.max());
  std::printf("graphics volume: %.2f MB\n", static_cast<double>(graphics_bytes) / 1e6);
  std::printf("\nhuman perceptual budget (~100 ms) %s\n",
              event_delay_ms.percentile(0.99) < 100.0 ? "comfortably met"
                                                      : "EXCEEDED");
  return 0;
}
