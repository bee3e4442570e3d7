// Tests for the workload generators and the §2.5 RMS parameter choices.
#include <gtest/gtest.h>

#include "workload/workload.h"

namespace dash::workload {
namespace {

TEST(PacedSource, EmitsAtFixedInterval) {
  sim::Simulator sim;
  std::vector<Time> times;
  PacedSource voice(sim, kVoiceFrameInterval, kVoiceFrameBytes,
                    [&](Bytes b) {
                      EXPECT_EQ(b.size(), kVoiceFrameBytes);
                      times.push_back(sim.now());
                    });
  voice.start();
  sim.run_until(msec(200));
  voice.stop();
  sim.run_until(msec(400));
  ASSERT_GE(times.size(), 10u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], kVoiceFrameInterval);
  }
  EXPECT_EQ(voice.frames_sent(), times.size());
}

TEST(PacedSource, VoiceRateIs64kbps) {
  // 160 bytes / 20 ms = 64 kb/s, the telephony constant.
  const double bps = static_cast<double>(kVoiceFrameBytes) * 8.0 /
                     to_seconds(kVoiceFrameInterval);
  EXPECT_DOUBLE_EQ(bps, 64'000.0);
}

TEST(VideoSource, FrameSizesJitterAroundMean) {
  sim::Simulator sim;
  std::vector<std::size_t> sizes;
  VideoSource video(sim, msec(33), 2000, 0.5, 7, [&](Bytes b) {
    sizes.push_back(b.size());
  });
  video.start();
  sim.run_until(sec(5));
  video.stop();
  ASSERT_GT(sizes.size(), 100u);
  double sum = 0.0;
  std::size_t lo = sizes[0], hi = sizes[0];
  for (std::size_t s : sizes) {
    sum += static_cast<double>(s);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_NEAR(sum / static_cast<double>(sizes.size()), 2000.0, 150.0);
  EXPECT_LT(lo, 1500u);  // jitter actually happens
  EXPECT_GT(hi, 2500u);
}

TEST(PoissonSource, MeanIntervalApproximatelyCorrect) {
  sim::Simulator sim;
  int count = 0;
  PoissonSource events(sim, 0.01 /* 10 ms mean */, 64, 5, [&](Bytes) { ++count; });
  events.start();
  sim.run_until(sec(20));
  events.stop();
  // Expect ~2000 events; Poisson noise is ~sqrt(2000) ≈ 45.
  EXPECT_NEAR(count, 2000, 200);
}

TEST(OnOffSource, SilentDuringOffPeriods) {
  sim::Simulator sim;
  std::vector<Time> times;
  OnOffSource burst(sim, msec(1), 100, msec(50), msec(150), 3,
                    [&](Bytes) { times.push_back(sim.now()); });
  burst.start();
  sim.run_until(sec(10));
  burst.stop();
  ASSERT_GT(times.size(), 100u);
  // There must be gaps much longer than the frame interval (off periods).
  int long_gaps = 0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] - times[i - 1] > msec(20)) ++long_gaps;
  }
  EXPECT_GT(long_gaps, 5);
  EXPECT_NEAR(burst.burstiness(), 4.0, 0.01);  // (50+150)/50
}

TEST(Requests, VoiceParametersMatchPaper) {
  const auto req = voice_request();
  EXPECT_TRUE(rms::well_formed(req.desired));
  EXPECT_TRUE(rms::well_formed(req.acceptable));
  // High capacity, low delay, statistical bound, tolerant error rate.
  EXPECT_EQ(req.desired.delay.type, rms::BoundType::kStatistical);
  EXPECT_LE(req.desired.delay.a, msec(50));
  EXPECT_GE(req.desired.bit_error_rate, 1e-3);
  EXPECT_GE(req.desired.capacity, 4u * 1024u);
  EXPECT_DOUBLE_EQ(req.desired.statistical.average_load_bps, 64'000.0);
}

TEST(Requests, WindowEventParametersMatchPaper) {
  const auto req = window_event_request();
  EXPECT_TRUE(rms::well_formed(req.desired));
  // Low capacity, moderate delay.
  EXPECT_LE(req.desired.capacity, 4u * 1024u);
  EXPECT_GE(req.desired.delay.a, msec(20));
}

TEST(Requests, GraphicsNeedsMoreCapacityThanEvents) {
  EXPECT_GT(window_graphics_request().desired.capacity,
            window_event_request().desired.capacity);
}

TEST(Requests, CompatibleWithThemselves) {
  for (const auto& req :
       {voice_request(), window_event_request(), window_graphics_request()}) {
    EXPECT_TRUE(rms::compatible(req.desired, req.acceptable));
  }
}

}  // namespace
}  // namespace dash::workload
