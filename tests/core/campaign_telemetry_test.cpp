// Tests for the campaign observability layer: heartbeat file round
// trips (including torn/foreign files), the background heartbeat
// publisher lifecycle, snapshot export framing, the progress meter,
// and the load-bearing invariant of the whole telemetry stack —
// a campaign archives byte-identical stores with telemetry on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "core/campaign_telemetry.h"
#include "core/trace_archive.h"
#include "util/json_writer.h"
#include "util/telemetry.h"
#include "../scratch_path.h"

namespace usca {
namespace {

std::string temp_path(const char* name) {
  return tests::scratch_path(std::string("campaign_telemetry_test_") + name);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class CampaignTelemetryTest : public ::testing::Test {
protected:
  void TearDown() override {
    telem::set_enabled(false);
    telem::set_export_path("");
    telem::reset_for_test();
  }
};

// ----------------------------------------------------------- heartbeat

TEST_F(CampaignTelemetryTest, HeartbeatPathSuffix) {
  EXPECT_EQ(core::heartbeat_path("/data/run/shard_0003.trc"),
            "/data/run/shard_0003.trc.hb");
}

TEST_F(CampaignTelemetryTest, HeartbeatRoundTrip) {
  const std::string path = temp_path("hb_roundtrip");
  std::remove(path.c_str());

  core::worker_heartbeat hb;
  hb.pid = 4321;
  hb.first_index = 1000;
  hb.traces = 250;
  hb.produced = 97;
  hb.wall_ms = 1722000000123ULL;
  hb.state = "running";
  core::write_heartbeat(path, hb);

  const auto back = core::read_heartbeat(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->pid, hb.pid);
  EXPECT_EQ(back->first_index, hb.first_index);
  EXPECT_EQ(back->traces, hb.traces);
  EXPECT_EQ(back->produced, hb.produced);
  EXPECT_EQ(back->wall_ms, hb.wall_ms);
  EXPECT_EQ(back->state, hb.state);

  // Rewrites go through tmp + rename, so no stale .tmp survives.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, MissingOrGarbageHeartbeatIsNullopt) {
  EXPECT_FALSE(core::read_heartbeat(temp_path("hb_missing")).has_value());

  const std::string path = temp_path("hb_garbage");
  {
    std::ofstream out(path);
    out << "not a heartbeat at all\n";
  }
  EXPECT_FALSE(core::read_heartbeat(path).has_value());
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, PublisherLifecycle) {
  const std::string path = temp_path("hb_publisher");
  std::remove(path.c_str());

  std::atomic<std::uint64_t> produced{0};
  core::worker_heartbeat base;
  base.pid = 7;
  base.first_index = 64;
  base.traces = 32;
  {
    core::heartbeat_publisher publisher(
        path, base, [&] { return produced.load(); },
        std::chrono::milliseconds(20));
    // The constructor writes synchronously before returning.
    auto hb = core::read_heartbeat(path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->state, "starting");
    EXPECT_EQ(hb->first_index, 64u);

    produced.store(17);
    // Wait (bounded) for a periodic re-stamp carrying the new count.
    for (int i = 0; i < 100; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      hb = core::read_heartbeat(path);
      if (hb && hb->state == "running" && hb->produced == 17) {
        break;
      }
    }
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->state, "running");
    EXPECT_EQ(hb->produced, 17u);

    publisher.finish("done");
    hb = core::read_heartbeat(path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->state, "done");
  }
  // finish() already ran: the destructor must not overwrite "done".
  EXPECT_EQ(core::read_heartbeat(path)->state, "done");
  std::remove(path.c_str());
}

TEST_F(CampaignTelemetryTest, PublisherDestructorMarksFailed) {
  const std::string path = temp_path("hb_failed");
  std::remove(path.c_str());
  {
    core::heartbeat_publisher publisher(path, core::worker_heartbeat{},
                                        nullptr,
                                        std::chrono::milliseconds(20));
    // Leaving scope without finish() — the unwind path of a throwing
    // worker.
  }
  const auto hb = core::read_heartbeat(path);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->state, "failed");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ snapshot

TEST_F(CampaignTelemetryTest, ExportSnapshotFraming) {
  EXPECT_FALSE(core::export_snapshot("worker")) << "no sink => no export";

  const std::string sink = temp_path("snapshot.jsonl");
  std::remove(sink.c_str());
  telem::set_export_path(sink);

  static const telem::counter c{"test.export.count", "items", "test"};
  c.add(3);
  ASSERT_TRUE(core::export_snapshot("worker"));
  ASSERT_TRUE(core::export_snapshot("coordinator"));

  std::ifstream in(sink);
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  EXPECT_NE(first.find("\"event\":\"snapshot\""), std::string::npos);
  EXPECT_NE(first.find("\"role\":\"worker\""), std::string::npos);
  EXPECT_NE(first.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(first.find("\"test.export.count\":3"), std::string::npos);
  EXPECT_NE(second.find("\"role\":\"coordinator\""), std::string::npos);
  std::remove(sink.c_str());
}

// ------------------------------------------------------------ progress

TEST_F(CampaignTelemetryTest, ProgressMeterRatesAndEta) {
  core::progress_meter meter;
  meter.start(100, 10);
  EXPECT_EQ(meter.total(), 100u);
  EXPECT_EQ(meter.produced(), 10u);
  EXPECT_EQ(meter.mean_rate(), 0.0);
  EXPECT_TRUE(std::isinf(meter.eta_seconds()));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  meter.observe(60);
  EXPECT_EQ(meter.produced(), 60u);
  EXPECT_GT(meter.mean_rate(), 0.0);
  EXPECT_GT(meter.recent_rate(), 0.0);
  EXPECT_GT(meter.eta_seconds(), 0.0);
  EXPECT_FALSE(std::isinf(meter.eta_seconds()));

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  meter.observe(100);
  EXPECT_EQ(meter.eta_seconds(), 0.0);
}

TEST_F(CampaignTelemetryTest, ProgressLineFormat) {
  core::progress_meter meter;
  meter.start(10000, 1234);
  const std::string stalled = meter.format_line(3);
  EXPECT_NE(stalled.find("1234/10000 traces"), std::string::npos) << stalled;
  EXPECT_NE(stalled.find("eta --:--"), std::string::npos) << stalled;
  EXPECT_NE(stalled.find("3 workers live"), std::string::npos) << stalled;

  const std::string solo = meter.format_line(1);
  EXPECT_NE(solo.find("1 worker live"), std::string::npos) << solo;
  EXPECT_EQ(solo.find("workers"), std::string::npos) << solo;
}

// --------------------------------------------------------- bit identity

/// mark(1); eor; add; lsl; mark(2); add — the trace_archive_test
/// program, reused so this pins the same pipeline end to end.
sim::program_image marked_program() {
  asmx::program_builder b;
  b.emit(isa::ins::mark(1));
  b.emit(isa::ins::eor(isa::reg::r1, isa::reg::r2, isa::reg::r3));
  b.emit(isa::ins::add(isa::reg::r4, isa::reg::r1, isa::reg::r2));
  b.emit(isa::ins::lsl(isa::reg::r5, isa::reg::r4, 2));
  b.emit(isa::ins::mark(2));
  b.emit(isa::ins::add(isa::reg::r6, isa::reg::r5, isa::reg::r4));
  return sim::program_image(b.build());
}

core::acquisition_campaign::setup_fn random_registers() {
  return [](std::size_t, util::xoshiro256& rng, sim::backend& pipe,
            std::vector<double>& labels) {
    const std::uint32_t a = rng.next_u32();
    const std::uint32_t b = rng.next_u32();
    pipe.state().set_reg(isa::reg::r2, a);
    pipe.state().set_reg(isa::reg::r3, b);
    labels.assign({static_cast<double>(a & 0xff),
                   static_cast<double>(b & 0xff)});
  };
}

class TelemetryBitIdentity
    : public ::testing::TestWithParam<sim::backend_kind> {
protected:
  void TearDown() override {
    telem::set_enabled(false);
    telem::reset_for_test();
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, TelemetryBitIdentity,
                         ::testing::Values(sim::backend_kind::inorder,
                                           sim::backend_kind::ooo),
                         [](const auto& info) {
                           return info.param == sim::backend_kind::ooo
                                      ? "ooo"
                                      : "inorder";
                         });

TEST_P(TelemetryBitIdentity, ArchiveBytesInvariantToTelemetry) {
  const sim::program_image image = marked_program();
  core::acquisition_config config;
  config.traces = 37;
  config.threads = 2;
  config.seed = 0xa5c1;
  config.averaging = 2;
  config.window = core::campaign_window{1, 2};
  config.backend = GetParam();
  config.uarch = GetParam() == sim::backend_kind::ooo ? sim::cortex_a7_ooo()
                                                      : sim::cortex_a7();
  core::archive_options options;
  options.chunk_traces = 8;

  const std::string off_path = temp_path("telem_off.trc");
  const std::string on_path = temp_path("telem_on.trc");
  std::remove(off_path.c_str());
  std::remove(on_path.c_str());

  telem::set_enabled(false);
  core::archive_acquisition(image, config, random_registers(), off_path,
                            options);

  // Full instrumentation live: spans timing, counters counting.
  telem::set_enabled(true);
  core::archive_acquisition(image, config, random_registers(), on_path,
                            options);

  EXPECT_EQ(file_bytes(on_path), file_bytes(off_path))
      << "telemetry must be write-only with respect to results";

  // And the campaign did flow through the instrumented paths.
  std::uint64_t archived = 0;
  for (const auto& s : telem::snapshot()) {
    if (s.info.name == "archive.records") {
      archived = s.count;
    }
  }
  EXPECT_GE(archived, static_cast<std::uint64_t>(config.traces));

  std::remove(off_path.c_str());
  std::remove(on_path.c_str());
}

} // namespace
} // namespace usca
