// Standard analysis passes for the batched trace streaming layer: the
// blocked CPA/TVLA accumulators, the label x sample Pearson correlation
// and the binary trace store writer, each wrapped as a
// core::analysis_pass so one pump over a campaign (or an archive replay)
// can fan its batch stream into any combination of analyses — each over
// its own sample window — and persistence in one pass over the data.
#ifndef USCA_CORE_ANALYSIS_SINKS_H
#define USCA_CORE_ANALYSIS_SINKS_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_stream.h"
#include "power/trace_io.h"
#include "stats/cpa.h"
#include "stats/pearson.h"
#include "stats/ttest.h"
#include "util/error.h"

namespace usca::core {

/// Streams batches into a partitioned CPA accumulator; the partition byte
/// is the record's label `partition_label` (e.g. the attacked plaintext
/// byte).  The accumulator is sized to the pass's sample window when the
/// pump begins — even for an empty (zero-record) source, so replaying a
/// valid-but-empty archive yields a sized, zero-trace engine instead of
/// an error.  Pumping the same sink again ACCUMULATES (the disjoint
/// archive shards of one logical campaign analyse as one population);
/// a shape mismatch between pumps throws.
class cpa_sink final : public analysis_pass {
public:
  explicit cpa_sink(std::size_t partition_label = 0,
                    window_spec window = window_spec::all())
      : partition_label_(partition_label), window_(window) {}

  window_spec window() const override { return window_; }

  void begin(const stream_shape& shape) override {
    if (partition_label_ >= shape.labels) {
      throw util::analysis_error(
          "cpa_sink partition label index out of range");
    }
    if (cpa_) {
      // Pumped again (e.g. the next archive shard of one logical
      // campaign): keep accumulating — silently resetting would discard
      // the previous pump's traces.
      if (cpa_->samples() != shape.samples) {
        throw util::analysis_error(
            "cpa_sink re-pumped with a different sample window");
      }
      return;
    }
    cpa_.emplace(shape.samples);
  }

  void consume_batch(const trace_batch_view& batch) override {
    if (batch.n_samples != cpa_->samples()) {
      throw util::analysis_error(
          "cpa_sink: batch sample count does not match the begun shape");
    }
    partitions_.resize(batch.count);
    for (std::size_t r = 0; r < batch.count; ++r) {
      partitions_[r] =
          static_cast<std::uint8_t>(batch.labels_row(r)[partition_label_]);
    }
    cpa_->add_batch(partitions_, batch.samples, batch.sample_stride,
                    batch.count);
  }

  /// The accumulated engine; throws if the pump never began this pass
  /// (a live source that delivered no records).
  const stats::partitioned_cpa& cpa() const {
    if (!cpa_) {
      throw util::analysis_error(
          "cpa_sink received no records (empty trace source)");
    }
    return *cpa_;
  }

private:
  std::size_t partition_label_;
  window_spec window_;
  std::vector<std::uint8_t> partitions_; ///< per-batch scratch
  std::optional<stats::partitioned_cpa> cpa_;
};

/// Streams batches into a TVLA accumulator; `is_fixed` classifies each
/// record into the fixed or the random population (default: the TVLA
/// campaign convention — even indices are the fixed class).
class tvla_sink final : public analysis_pass {
public:
  using classifier_fn = std::function<bool(const trace_view&)>;

  explicit tvla_sink(classifier_fn is_fixed = {},
                     window_spec window = window_spec::all())
      : is_fixed_(is_fixed ? std::move(is_fixed)
                           : [](const trace_view& v) {
                               return v.index % 2 == 0;
                             }),
        window_(window) {}

  window_spec window() const override { return window_; }

  void begin(const stream_shape& shape) override {
    if (tvla_) {
      // See cpa_sink::begin(): accumulate across pumps, never reset.
      if (tvla_->samples() != shape.samples) {
        throw util::analysis_error(
            "tvla_sink re-pumped with a different sample window");
      }
      return;
    }
    tvla_.emplace(shape.samples);
  }

  void consume_batch(const trace_batch_view& batch) override {
    if (batch.n_samples != tvla_->samples()) {
      throw util::analysis_error(
          "tvla_sink: batch sample count does not match the begun shape");
    }
    classes_.resize(batch.count);
    for (std::size_t r = 0; r < batch.count; ++r) {
      const trace_view view{batch.index(r), batch.labels_row(r),
                            batch.samples_row(r)};
      classes_[r] = is_fixed_(view) ? 1 : 0;
    }
    tvla_->add_batch(batch.samples, batch.sample_stride, batch.count,
                     classes_);
  }

  /// The accumulated assessment; throws if the pump never began this
  /// pass (see cpa_sink::cpa()).
  const stats::tvla_accumulator& tvla() const {
    if (!tvla_) {
      throw util::analysis_error(
          "tvla_sink received no records (empty trace source)");
    }
    return *tvla_;
  }

private:
  classifier_fn is_fixed_;
  window_spec window_;
  std::vector<unsigned char> classes_; ///< per-batch scratch
  std::optional<stats::tvla_accumulator> tvla_;
};

/// Correlates every record label with every window sample: one Pearson
/// accumulator per (label, sample) — the characterizer's model x sample
/// pass and the examples' per-cycle leakage probes.  Labels loop outer
/// and batch rows inner, so every accumulator updates in ascending index
/// order and the result does not depend on the tile size.  Each pump
/// starts a fresh analysis.
class label_correlation_sink final : public analysis_pass {
public:
  using grid = std::vector<std::vector<stats::pearson_accumulator>>;

  void begin(const stream_shape& shape) override {
    samples_ = shape.samples;
    traces_ = 0;
    acc_.assign(shape.labels,
                std::vector<stats::pearson_accumulator>(samples_));
  }

  void consume_batch(const trace_batch_view& batch) override {
    for (std::size_t l = 0; l < acc_.size(); ++l) {
      std::vector<stats::pearson_accumulator>& row = acc_[l];
      for (std::size_t r = 0; r < batch.count; ++r) {
        const double label = batch.labels_row(r)[l];
        const std::span<const double> samples = batch.samples_row(r);
        for (std::size_t s = 0; s < samples_; ++s) {
          row[s].add(label, samples[s]);
        }
      }
    }
    traces_ += batch.count;
  }

  /// [label][sample] accumulators (empty until the pump begins).
  const grid& correlations() const noexcept { return acc_; }
  std::size_t samples() const noexcept { return samples_; }
  /// Records consumed so far.
  std::size_t traces() const noexcept { return traces_; }

private:
  std::size_t samples_ = 0;
  std::size_t traces_ = 0;
  grid acc_;
};

/// Archives the stream into a (new) binary trace store at `path`.  The
/// descriptor's sample/label counts may be left 0 — they are completed
/// from the begun shape (so an empty shape-aware source still writes a
/// valid header-only store); finish() flushes and closes the file.  A
/// non-default window archives only that sample slice of each record.
class store_sink final : public analysis_pass {
public:
  store_sink(std::string path, power::trace_store_descriptor desc,
             window_spec window = window_spec::all())
      : path_(std::move(path)), desc_(desc), window_(window) {}

  window_spec window() const override { return window_; }

  void begin(const stream_shape& shape) override {
    if (writer_) {
      // create() truncates: a second pump would silently erase the first
      // pump's records.  Use core/trace_archive.h to extend a store.
      throw util::analysis_error(
          "store_sink cannot be pumped twice (the store was already "
          "written)");
    }
    desc_.samples = shape.samples;
    desc_.labels = static_cast<std::uint32_t>(shape.labels);
    writer_.emplace(power::trace_store_writer::create(path_, desc_));
  }

  void consume_batch(const trace_batch_view& batch) override {
    for (std::size_t r = 0; r < batch.count; ++r) {
      writer_->append(batch.labels_row(r), batch.samples_row(r));
    }
  }

  void finish() override {
    if (writer_) {
      writer_->close();
    }
  }

  /// Records written so far (valid after the pump has begun).
  std::size_t records() const { return writer_ ? writer_->records() : 0; }

private:
  std::string path_;
  power::trace_store_descriptor desc_;
  window_spec window_;
  std::optional<power::trace_store_writer> writer_;
};

} // namespace usca::core

#endif // USCA_CORE_ANALYSIS_SINKS_H
