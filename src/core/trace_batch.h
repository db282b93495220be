// SoA trace batches: the delivery unit of the batched analysis API.
//
// A trace_batch_view is a strided, read-only tile of up to B consecutive
// records of a trace stream — a label matrix and a sample matrix sharing
// one row stride each, rows in strict index order.  The stride makes the
// view format-agnostic: an mmap'd f64 trace-store chunk (labels and
// samples interleaved per record) is viewed zero-copy with
// stride = labels + samples, while a decoded or rebuilt tile is viewed
// with its own packed stride.  Consumers (core::analysis_pass) iterate
// rows or hand whole tiles to the register-blocked batch kernels in
// stats/; slicing a sample window out of a batch is pure pointer
// arithmetic, so N windowed passes can share one delivery without any
// copying.
#ifndef USCA_CORE_TRACE_BATCH_H
#define USCA_CORE_TRACE_BATCH_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>

#include "util/error.h"

namespace usca::core {

/// Read-only strided SoA tile of `count` consecutive trace records.
/// Valid only during the consume_batch() call that delivers it (sources
/// reuse tiles and chunk scratch between deliveries).
struct trace_batch_view {
  std::size_t first_index = 0; ///< global index of row 0
  std::size_t count = 0;       ///< records in the tile
  std::size_t n_labels = 0;
  std::size_t n_samples = 0;
  const double* labels = nullptr;  ///< row r at labels + r * label_stride
  std::size_t label_stride = 0;    ///< doubles between label rows
  const double* samples = nullptr; ///< row r at samples + r * sample_stride
  std::size_t sample_stride = 0;   ///< doubles between sample rows

  std::size_t index(std::size_t row) const noexcept {
    return first_index + row;
  }
  std::span<const double> labels_row(std::size_t row) const noexcept {
    return {labels + row * label_stride, n_labels};
  }
  std::span<const double> samples_row(std::size_t row) const noexcept {
    return {samples + row * sample_stride, n_samples};
  }

  /// The same rows restricted to sample columns [first, first + count) —
  /// the zero-copy windowing primitive of the pass pump.
  trace_batch_view sample_window(std::size_t first,
                                 std::size_t window_count) const noexcept {
    trace_batch_view out = *this;
    out.samples = samples + first;
    out.n_samples = window_count;
    return out;
  }

  /// Rows [first_row, first_row + row_count) as their own tile.
  trace_batch_view rows(std::size_t first_row,
                        std::size_t row_count) const noexcept {
    trace_batch_view out = *this;
    out.first_index = first_index + first_row;
    out.count = row_count;
    out.labels = labels + first_row * label_stride;
    out.samples = samples + first_row * sample_stride;
    return out;
  }
};

/// Accumulates per-record deliveries into an owned packed tile — how the
/// live campaign sources batch their in-order record streams.  Appends
/// must arrive in strictly consecutive index order; the shape is fixed by
/// the first append.
class batch_builder {
public:
  explicit batch_builder(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void append(std::size_t index, std::span<const double> labels,
              std::span<const double> samples) {
    if (count_ == 0) {
      if (!shaped_) {
        n_labels_ = labels.size();
        n_samples_ = samples.size();
        // Uninitialised: view() exposes only the rows append() wrote.
        labels_ = std::make_unique_for_overwrite<double[]>(capacity_ *
                                                           n_labels_);
        samples_ = std::make_unique_for_overwrite<double[]>(capacity_ *
                                                            n_samples_);
        shaped_ = true;
      } else if (index != next_index_) {
        // Continuity holds ACROSS tiles too: a gap exactly at a tile
        // boundary is as much a source bug as one in the middle.
        throw util::analysis_error(
            "batch_builder: records must arrive in consecutive index "
            "order");
      }
      first_index_ = index;
    } else if (index != first_index_ + count_) {
      throw util::analysis_error(
          "batch_builder: records must arrive in consecutive index order");
    }
    if (labels.size() != n_labels_ || samples.size() != n_samples_) {
      throw util::analysis_error(
          "batch_builder: record shape changed mid-stream "
          "(data-dependent trace length?)");
    }
    std::copy(labels.begin(), labels.end(),
              labels_.get() + count_ * n_labels_);
    std::copy(samples.begin(), samples.end(),
              samples_.get() + count_ * n_samples_);
    ++count_;
    next_index_ = first_index_ + count_;
  }

  /// append() plus deliver-on-full: the per-record step of a live
  /// source's for_each_batch loop.  Call flush(fn) once the stream ends.
  template <typename Fn>
  void push(std::size_t index, std::span<const double> labels,
            std::span<const double> samples, Fn&& fn) {
    append(index, labels, samples);
    if (full()) {
      fn(view());
      clear();
    }
  }

  /// Delivers the trailing partial tile, if any.
  template <typename Fn> void flush(Fn&& fn) {
    if (!empty()) {
      fn(view());
      clear();
    }
  }

  bool full() const noexcept { return shaped_ && count_ == capacity_; }
  bool empty() const noexcept { return count_ == 0; }

  trace_batch_view view() const noexcept {
    trace_batch_view v;
    v.first_index = first_index_;
    v.count = count_;
    v.n_labels = n_labels_;
    v.n_samples = n_samples_;
    v.labels = labels_.get();
    v.label_stride = n_labels_;
    v.samples = samples_.get();
    v.sample_stride = n_samples_;
    return v;
  }

  /// Empties the tile; the shape (and the allocations) stay for reuse.
  void clear() noexcept { count_ = 0; }

private:
  std::size_t capacity_;
  bool shaped_ = false;
  std::size_t first_index_ = 0;
  std::size_t next_index_ = 0; ///< expected index, carried across tiles
  std::size_t count_ = 0;
  std::size_t n_labels_ = 0;
  std::size_t n_samples_ = 0;
  std::unique_ptr<double[]> labels_;  ///< capacity_ rows of n_labels_
  std::unique_ptr<double[]> samples_; ///< capacity_ rows of n_samples_
};

} // namespace usca::core

#endif // USCA_CORE_TRACE_BATCH_H
