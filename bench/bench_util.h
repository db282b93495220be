// Shared helpers for the experiment harnesses: a small key=value command
// line parser (every bench runs standalone with sensible defaults),
// wall-clock timing, ASCII table rendering, and machine-readable report
// emission (JSON documents are built with util/json_writer.h — benches
// must not hand-roll escaping or comma placement).
#ifndef USCA_BENCH_BENCH_UTIL_H
#define USCA_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/trace_stream.h"
#include "power/trace.h"
#include "util/json_writer.h"

namespace usca::bench {

/// Parses "key=value" arguments against the bench's declared keys; a
/// malformed argument or an unknown (e.g. misspelt) key exits with
/// status 2 and a usage hint, before the bench starts any work.
class arg_map {
public:
  arg_map(int argc, char** argv, std::initializer_list<const char*> keys)
      : keys_(keys.begin(), keys.end()) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        usage(argv[0], "expected key=value, got '" + arg + "'");
      }
      const std::string key = arg.substr(0, eq);
      if (keys_.count(key) == 0) {
        usage(argv[0], "unknown key '" + key + "'");
      }
      values_[key] = arg.substr(eq + 1);
    }
  }

  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    // stoull alone is too lenient: it wraps negatives and ignores
    // trailing garbage, so "traces=-1" would become ~1.8e19.
    try {
      std::size_t consumed = 0;
      const unsigned long long value = std::stoull(it->second, &consumed);
      if (consumed != it->second.size() ||
          it->second.find('-') != std::string::npos) {
        die(key, it->second, "a non-negative integer");
      }
      return static_cast<std::size_t>(value);
    } catch (const std::exception&) {
      die(key, it->second, "a non-negative integer");
    }
  }

private:
  [[noreturn]] void usage(const char* program,
                          const std::string& problem) const {
    std::fprintf(stderr, "%s\nusage: %s", problem.c_str(), program);
    for (const std::string& key : keys_) {
      std::fprintf(stderr, " [%s=N]", key.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  [[noreturn]] static void die(const std::string& key,
                               const std::string& value,
                               const char* expected) {
    std::fprintf(stderr, "invalid value '%s' for %s= (expected %s)\n",
                 value.c_str(), key.c_str(), expected);
    std::exit(2);
  }

  std::set<std::string> keys_;
  std::map<std::string, std::string> values_;
};

/// Keeps every record's labels and samples in index order, for analyses
/// that re-read prefixes of one acquired campaign (the MTD searches).
class collecting_pass final : public core::analysis_pass {
public:
  void begin(const core::stream_shape& shape) override {
    labels.reserve(shape.traces);
    samples.reserve(shape.traces);
  }

  void consume_batch(const core::trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      const std::span<const double> l = batch.labels_row(r);
      const std::span<const double> s = batch.samples_row(r);
      labels.emplace_back(l.begin(), l.end());
      samples.emplace_back(s.begin(), s.end());
    }
  }

  std::vector<std::vector<double>> labels; ///< [record][label]
  std::vector<power::trace> samples;       ///< [record][sample]
};

/// Wall-clock stopwatch for reporting campaign acquisition cost.
class stopwatch {
public:
  stopwatch() : started_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point started_;
};

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

/// Writes a finished json_writer document to `out` with JSON-lines
/// framing — the one way bench reports reach stdout and report files.
inline void write_json_report(std::FILE* out, const util::json_writer& w) {
  const std::string text = w.line();
  std::fwrite(text.data(), 1, text.size(), out);
}

} // namespace usca::bench

#endif // USCA_BENCH_BENCH_UTIL_H
