// Seeded mutation fuzz of the fabric manifest reader.  A manifest the
// coordinator wrote (done, pending and retried leases) is damaged —
// byte flips, cuts at every line and inside it, dropped, duplicated and
// 5 000-byte lines, out-of-range numbers, unknown keys and lease states,
// and random stacks of those — and read back twice:
//
//  * fabric_manifest::read either throws util::analysis_error, or
//    returns leases that are exactly the split of the manifest's own
//    (first_index, traces, lease_traces) header, in id order, each with
//    a known state and a shard path;
//  * the coordinator, bound to the original campaign, either throws
//    util::analysis_error or loads that campaign's split.
//
// Damage the format can always see (a line dropped, duplicated or cut,
// a number out of range, an unknown key or state) must be refused.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/campaign_fabric.h"
#include "core/trace_archive.h"
#include "util/error.h"
#include "util/rng.h"
#include "../scratch_path.h"

namespace usca {
namespace {

namespace fs = std::filesystem;

/// mark(1); eor; mark(2): the smallest archivable campaign.
sim::program_image marked_program() {
  asmx::program_builder b;
  b.emit(isa::ins::mark(1));
  b.emit(isa::ins::eor(isa::reg::r1, isa::reg::r2, isa::reg::r3));
  b.emit(isa::ins::mark(2));
  return sim::program_image(b.build());
}

core::acquisition_config campaign_config() {
  core::acquisition_config config;
  config.traces = 37;
  config.threads = 1;
  config.seed = 0xf022;
  config.averaging = 1;
  config.window = core::campaign_window{1, 2};
  return config;
}

std::string file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos + 1)); // keeps the newline
    pos = nl + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
  }
  return text;
}

/// Replaces space-separated field `field` of line `line`.
std::string with_field(const std::string& text, std::size_t line,
                       std::size_t field, const std::string& value) {
  std::vector<std::string> lines = split_lines(text);
  std::string& l = lines.at(line);
  std::size_t begin = 0;
  for (std::size_t f = 0; f < field; ++f) {
    begin = l.find(' ', begin) + 1;
  }
  std::size_t end = l.find_first_of(" \n", begin);
  l.replace(begin, end - begin, value);
  return join(lines);
}

class ManifestFuzz : public ::testing::Test {
protected:
  void SetUp() override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    config_.manifest_path = dir_ + "/base.manifest";
    config_.shard_dir = dir_ + "/shards";
    config_.traces = 37;
    config_.lease_traces = 8;
    config_.seed = campaign_config().seed;
    config_.config_hash = core::salted_config_hash(
        core::acquisition_config_hash(campaign_config()), 0);
    config_.max_attempts = 2;
    config_.backoff_base = std::chrono::milliseconds(1);
    config_.backoff_cap = std::chrono::milliseconds(1);
    config_.poll_interval = std::chrono::milliseconds(1);

    // One worker at a time, in id order; the last lease's worker always
    // fails, so the journal ends with four done leases and a retried
    // pending one.
    const sim::program_image image = marked_program();
    core::campaign_fabric fabric(config_);
    core::thread_worker_runner runner([&image](const core::fabric_lease& l) {
      if (l.id == 4) {
        throw util::analysis_error("lease 4 always fails");
      }
      core::acquisition_config sub = campaign_config();
      sub.first_index = l.first_index;
      sub.traces = l.traces;
      core::archive_acquisition(
          image, sub,
          [](std::size_t, util::xoshiro256& rng, sim::backend& pipe,
             std::vector<double>& labels) {
            const std::uint32_t a = rng.next_u32();
            pipe.state().set_reg(isa::reg::r2, a);
            labels.assign({static_cast<double>(a & 0xff)});
          },
          l.shard_path);
    });
    EXPECT_THROW(fabric.run(runner), util::analysis_error);
    base_ = file_text(config_.manifest_path);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Reads `text` as a manifest; true when it loaded.  Fails the test on
  /// any exception but util::analysis_error, and on a load whose leases
  /// are not its header's split.
  bool loads(const std::string& text) {
    const std::string path = dir_ + "/mutant.manifest";
    write_text(path, text);
    core::fabric_manifest m;
    try {
      m = core::fabric_manifest::read(path);
    } catch (const util::analysis_error&) {
      return false;
    }
    EXPECT_GT(m.traces, 0u);
    EXPECT_GT(m.lease_traces, 0u);
    const std::size_t count =
        m.traces / m.lease_traces + (m.traces % m.lease_traces != 0 ? 1 : 0);
    EXPECT_EQ(m.leases.size(), count);
    for (std::size_t i = 0; i < m.leases.size(); ++i) {
      const core::fabric_lease& l = m.leases[i];
      EXPECT_EQ(l.id, i);
      EXPECT_EQ(l.first_index, m.first_index + i * m.lease_traces);
      EXPECT_EQ(l.traces, std::min(m.lease_traces,
                                   m.traces - i * m.lease_traces));
      EXPECT_FALSE(l.shard_path.empty());
    }
    coordinator_loads(path);
    return true;
  }

  /// The coordinator bound to the original campaign loads only its own
  /// split, with no lease left `leased`.
  void coordinator_loads(const std::string& path) {
    core::fabric_config config = config_;
    config.manifest_path = path;
    try {
      const core::campaign_fabric fabric(config);
      ASSERT_EQ(fabric.leases().size(), 5u);
      for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(fabric.leases()[i].first_index, 8 * i);
        EXPECT_NE(fabric.leases()[i].state, core::lease_state::leased);
      }
    } catch (const util::analysis_error&) {
    }
  }

  std::string dir_ = tests::scratch_path("fabric_manifest_fuzz");
  core::fabric_config config_;
  std::string base_;
};

TEST_F(ManifestFuzz, CoordinatorManifestLoadsAsWritten) {
  ASSERT_TRUE(loads(base_));
  const core::fabric_manifest m =
      core::fabric_manifest::read(config_.manifest_path);
  EXPECT_EQ(m.config_hash, config_.config_hash);
  EXPECT_EQ(m.seed, config_.seed);
  ASSERT_EQ(m.leases.size(), 5u);
  EXPECT_EQ(m.leases[3].state, core::lease_state::done);
  EXPECT_EQ(m.leases[4].state, core::lease_state::pending);
  EXPECT_EQ(m.leases[4].attempts, 2u);
  EXPECT_EQ(m.leases[4].traces, 5u);
  EXPECT_TRUE(core::fabric_manifest::probe(config_.manifest_path));

  // `leased` is kept as written; the coordinator demotes it.
  const std::string leased = with_field(base_, 10, 5, "leased");
  write_text(dir_ + "/leased.manifest", leased);
  EXPECT_EQ(core::fabric_manifest::read(dir_ + "/leased.manifest")
                .leases[4]
                .state,
            core::lease_state::leased);
  EXPECT_TRUE(loads(leased));
}

TEST_F(ManifestFuzz, CutsDropsAndDuplicatesAreRefused) {
  const std::vector<std::string> lines = split_lines(base_);
  ASSERT_EQ(lines.size(), 11u); // magic, 5 campaign lines, 5 leases
  for (std::size_t n = 0; n < lines.size(); ++n) {
    // Cut after line n, and inside line n (no newline left).
    const std::vector<std::string> head(lines.begin(),
                                        lines.begin() + static_cast<long>(n));
    EXPECT_FALSE(loads(join(head))) << "cut before line " << n;
    for (std::size_t keep = 0; keep + 1 < lines[n].size(); ++keep) {
      EXPECT_FALSE(loads(join(head) + lines[n].substr(0, keep)))
          << "cut inside line " << n << " at " << keep;
    }
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + static_cast<long>(n));
    EXPECT_FALSE(loads(join(dropped))) << "dropped line " << n;
    std::vector<std::string> doubled = lines;
    doubled.insert(doubled.begin() + static_cast<long>(n), lines[n]);
    EXPECT_FALSE(loads(join(doubled))) << "duplicated line " << n;
    std::vector<std::string> padded = lines;
    padded.insert(padded.begin() + static_cast<long>(n),
                  std::string(5'000, 'x') + "\n");
    EXPECT_FALSE(loads(join(padded))) << "5000-byte line before " << n;
  }
  EXPECT_FALSE(loads(base_ + std::string(5'000, '7') + "\n"));
  EXPECT_FALSE(loads(base_ + "\n"));
  EXPECT_FALSE(loads(""));
}

TEST_F(ManifestFuzz, OutOfRangeNumbersUnknownKeysAndStatesAreRefused) {
  const std::vector<std::string> bad_numbers = {
      "-1", "+1", "", "18446744073709551616", "99999999999999999999999",
      "1e3", "0x10", " 1", std::string(5'000, '9')};
  for (std::size_t line = 1; line <= 5; ++line) {
    for (const std::string& value : bad_numbers) {
      EXPECT_FALSE(loads(with_field(base_, line, 1, value)))
          << "line " << line << " = '" << value << "'";
    }
    EXPECT_FALSE(loads(with_field(base_, line, 0, "config_hashes")));
    EXPECT_FALSE(loads(with_field(base_, line, 0, "lease")));
  }
  for (std::size_t line = 6; line <= 10; ++line) {
    for (std::size_t field = 1; field <= 4; ++field) {
      for (const std::string& value : bad_numbers) {
        EXPECT_FALSE(loads(with_field(base_, line, field, value)))
            << "line " << line << " field " << field << " = '" << value
            << "'";
      }
    }
    EXPECT_FALSE(loads(with_field(base_, line, 4, "4294967296")));
    for (const std::string state : {"Done", "failed", "", "PENDING"}) {
      EXPECT_FALSE(loads(with_field(base_, line, 5, state)))
          << "state '" << state << "'";
    }
    EXPECT_FALSE(loads(with_field(base_, line, 0, "leases")));
    EXPECT_FALSE(loads(with_field(base_, line, 0, "seed")));
  }
  // Header values the split cannot take.
  EXPECT_FALSE(loads(with_field(base_, 4, 1, "0")));
  EXPECT_FALSE(loads(with_field(base_, 5, 1, "0")));
  EXPECT_FALSE(loads(with_field(base_, 3, 1, "18446744073709551615")));
  // A lease that disagrees with the split.
  EXPECT_FALSE(loads(with_field(base_, 7, 2, "9")));
  EXPECT_FALSE(loads(with_field(base_, 10, 3, "8")));
  // In range and in the split: these load.
  EXPECT_TRUE(loads(with_field(base_, 6, 4, "4294967295")));
  EXPECT_TRUE(loads(with_field(base_, 6, 6, std::string(5'000, 's'))));
}

TEST_F(ManifestFuzz, RandomMutationsLoadAsTheirSplitOrThrow) {
  util::xoshiro256 rng(0x5eed'f022);
  const std::vector<std::string> words = {
      "lease", "done", "pending", "leased", "seed", "traces", "0", "1",
      "8", "37", "-1", "18446744073709551616", "\n", " ", "usca"};
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (int iter = 0; iter < 4'000; ++iter) {
    std::string text = base_;
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int k = 0; k < mutations && !text.empty(); ++k) {
      const std::size_t pos = rng.bounded(text.size());
      switch (rng.bounded(5)) {
      case 0: // byte flip
        text[pos] = static_cast<char>(text[pos] ^ (1 + rng.bounded(255)));
        break;
      case 1: // cut
        text.resize(pos);
        break;
      case 2: // insert a word
        text.insert(pos, words[rng.bounded(words.size())]);
        break;
      case 3: // erase a run
        text.erase(pos, 1 + rng.bounded(16));
        break;
      default: { // swap a digit for another
        const std::size_t digit = text.find_first_of("0123456789", pos);
        if (digit != std::string::npos) {
          text[digit] = static_cast<char>('0' + rng.bounded(10));
        }
        break;
      }
      }
    }
    if (loads(text)) {
      ++loaded;
    } else {
      ++refused;
    }
  }
  // Both outcomes occur, so neither branch of the property is vacuous.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

TEST_F(ManifestFuzz, ProbeReadsOnlyTheMagicLine) {
  const std::string path = dir_ + "/probe";
  write_text(path, "usca-fabric-manifest 1\n");
  EXPECT_TRUE(core::fabric_manifest::probe(path));
  write_text(path, "usca-fabric-manifest 1");
  EXPECT_FALSE(core::fabric_manifest::probe(path));
  write_text(path, "usca-fabric-manifest 2\n");
  EXPECT_FALSE(core::fabric_manifest::probe(path));
  EXPECT_FALSE(core::fabric_manifest::probe(dir_ + "/missing"));
  EXPECT_FALSE(core::fabric_manifest::probe(dir_));
}

} // namespace
} // namespace usca
