// The batched, windowed trace streaming layer.
//
// Every analysis in this repository consumes the same thing: an ordered
// stream of (index, labels, samples) records.  Where the stream comes
// from — a live parallel simulation campaign or an archived trace store
// replayed from disk — is irrelevant to the CPA/TVLA/characterizer
// stack, so the two ends are decoupled behind two interfaces:
//
//  * trace_source — produces the stream in strict index order as SoA
//    trace batches (core/trace_batch.h).  Archive sources serve whole
//    mmap'd chunks zero-copy for f64 stores; the live campaign sources
//    pack their in-order record deliveries into reused tiles.
//  * analysis_pass — consumes it: begin(shape) once, consume_batch()
//    per tile, finish() at the end.  Each pass declares a window_spec;
//    the pump slices every delivered batch to that sample window (pure
//    pointer arithmetic on the strided tile), so ONE pass over the data
//    can feed any number of analyses over distinct windows — e.g. a
//    per-AES-phase CPA sweep replayed from a single archive read.
//
// pump() connects one source to any number of passes.  Because every
// source delivers in strict index order, batching never reorders any
// accumulation: an analysis is bit-identical at any batch size, and an
// analysis fed from an archive is bit-identical to the same analysis fed
// from the live campaign that wrote the archive — the properties the
// replay and batch-identity tests pin.  A consumer that wants one record
// at a time (a progress meter, a per-record hypothesis) is an
// analysis_pass that loops over the rows of each tile.
#ifndef USCA_CORE_TRACE_STREAM_H
#define USCA_CORE_TRACE_STREAM_H

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/trace_batch.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "util/telemetry.h"

namespace usca::core {

/// One row of a tile, as tvla_sink's classifier sees it.  The spans are
/// valid only during the call (live sources reuse buffers; archive
/// sources may remap).
struct trace_view {
  std::size_t index = 0;
  std::span<const double> labels;
  std::span<const double> samples;
};

/// What a source knows about its stream before delivering it.  Archive
/// sources know everything from the store header; live sources know the
/// trace count and first index but discover sample/label counts from the
/// first record.
struct stream_shape {
  std::size_t traces = 0;
  std::size_t samples = 0; ///< per record, after any window slicing
  std::size_t labels = 0;
  std::size_t first_index = 0;
};

/// Half-open sample window [first, last) in window-relative sample
/// indices; last == npos means "to the end of the trace".
struct window_spec {
  static constexpr std::size_t npos =
      std::numeric_limits<std::size_t>::max();

  std::size_t first = 0;
  std::size_t last = npos;

  static window_spec all() noexcept { return {}; }
  static window_spec range(std::size_t first, std::size_t last) noexcept {
    return {first, last};
  }

  bool is_all() const noexcept { return first == 0 && last == npos; }

  /// Window length once the trace length is known; validates the bounds.
  std::size_t resolve(std::size_t samples) const {
    const std::size_t end = last == npos ? samples : last;
    if (first >= end || end > samples) {
      throw util::analysis_error(
          "window_spec [" + std::to_string(first) + ", " +
          std::to_string(last == npos ? samples : last) +
          ") is empty or exceeds the trace length " +
          std::to_string(samples));
    }
    return end - first;
  }
};

/// A streaming analysis over (a window of) the trace stream.
class analysis_pass {
public:
  virtual ~analysis_pass() = default;

  /// Sample window this pass consumes; the pump slices every batch to it
  /// before consume_batch() sees it (begin()'s shape.samples is already
  /// the window length).
  virtual window_spec window() const { return window_spec::all(); }

  /// Called once, before the first batch.  With a shape-aware source
  /// (archives) this runs even when the stream delivers zero records, so
  /// an empty replay still produces a sized, zero-trace analysis.
  virtual void begin(const stream_shape& shape) { (void)shape; }

  /// Called once per tile, in strict index order (batch row r is record
  /// first_index + r; consecutive batches are contiguous).
  virtual void consume_batch(const trace_batch_view& batch) = 0;

  /// Called once after the last batch — flush/close point.
  virtual void finish() {}
};

class trace_source {
public:
  using batch_fn = std::function<void(const trace_batch_view&)>;

  virtual ~trace_source() = default;

  /// Records this source will deliver.
  virtual std::size_t traces() const = 0;

  /// Full static shape when it is known before streaming (archives read
  /// it from the store header); nullopt when sample/label counts are
  /// discovered from the first record (live campaigns).
  virtual std::optional<stream_shape> shape() const { return std::nullopt; }

  /// Streams every record as tiles of at most `max_batch` rows, in
  /// strict index order.  Tiles (and any scratch behind them) are valid
  /// only during the callback.
  virtual void for_each_batch(std::size_t max_batch,
                              const batch_fn& fn) = 0;

  /// Default tile size of pump(): matches the trace store's
  /// default chunk size, so archive replay stays whole-chunk zero-copy.
  static constexpr std::size_t default_batch_traces = 256;
};

/// Replays an archived trace store as a batched source: one tile per
/// store chunk (zero-copy for f64 stores, whole-chunk scratch decode for
/// f32), split only when the pump asks for smaller batches.  The reader
/// must outlive the source.
class archive_source final : public trace_source {
public:
  explicit archive_source(const power::trace_store_reader& reader)
      : reader_(reader) {}

  std::size_t traces() const override { return reader_.traces(); }

  std::optional<stream_shape> shape() const override {
    return stream_shape{reader_.traces(), reader_.samples(),
                        reader_.labels(), reader_.first_index()};
  }

  void for_each_batch(std::size_t max_batch, const batch_fn& fn) override {
    if (max_batch == 0) {
      max_batch = default_batch_traces;
    }
    const std::size_t chunks = reader_.chunk_count();
    for (std::size_t c = 0; c < chunks; ++c) {
      const power::batch_rows rows = reader_.chunk_rows(c);
      trace_batch_view chunk;
      chunk.first_index = reader_.first_index() + rows.first_record;
      chunk.count = rows.count;
      chunk.n_labels = reader_.labels();
      chunk.n_samples = reader_.samples();
      chunk.labels = rows.labels;
      chunk.label_stride = rows.stride;
      chunk.samples = rows.samples;
      chunk.sample_stride = rows.stride;
      for (std::size_t off = 0; off < chunk.count; off += max_batch) {
        const std::size_t n = std::min(max_batch, chunk.count - off);
        fn(chunk.rows(off, n));
      }
    }
  }

private:
  const power::trace_store_reader& reader_;
};

/// How pump() batches a source; the tile size never changes any result
/// (pinned by the batch-identity tests), only the delivery granularity.
struct pump_options {
  std::size_t batch_traces = trace_source::default_batch_traces;
};

/// Streams `source` into every pass: begin() with each pass's windowed
/// shape (immediately when the source knows its shape, otherwise at the
/// first batch), consume_batch() per tile sliced to each pass's window,
/// finish() at the end.  Passes finish even when the source is empty;
/// with a shape-aware source they are begun too, so a valid-but-empty
/// replay yields sized, zero-trace analyses instead of dead sinks.
inline void pump(trace_source& source,
                 std::span<analysis_pass* const> passes,
                 const pump_options& options = {}) {
  // Window placement resolved once per pass at begin() time.
  std::vector<std::pair<std::size_t, std::size_t>> windows(passes.size());
  bool begun = false;
  const auto begin_all = [&](std::size_t samples, std::size_t labels,
                             std::size_t n_traces,
                             std::size_t first_index) {
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const window_spec w = passes[p]->window();
      const std::size_t length = w.resolve(samples);
      windows[p] = {w.first, length};
      passes[p]->begin(
          stream_shape{n_traces, length, labels, first_index});
    }
    begun = true;
  };
  if (const std::optional<stream_shape> s = source.shape()) {
    begin_all(s->samples, s->labels, s->traces, s->first_index);
  }
  // Function-local statics in an inline function: one shared instance
  // across every TU that pumps ([basic.def.odr]), so batch/row counts
  // aggregate process-wide.
  static const telem::counter batches{"analysis.batches", "batches",
                                      "analysis"};
  static const telem::counter rows{"analysis.rows", "traces", "analysis"};
  source.for_each_batch(
      options.batch_traces, [&](const trace_batch_view& batch) {
        if (!begun) {
          begin_all(batch.n_samples, batch.n_labels, source.traces(),
                    batch.first_index);
        }
        batches.add();
        rows.add(batch.count);
        TELEM_SPAN("analysis.batch");
        for (std::size_t p = 0; p < passes.size(); ++p) {
          passes[p]->consume_batch(
              batch.sample_window(windows[p].first, windows[p].second));
        }
      });
  for (analysis_pass* pass : passes) {
    pass->finish();
  }
}

inline void pump(trace_source& source, analysis_pass& pass,
                 const pump_options& options = {}) {
  analysis_pass* passes[] = {&pass};
  pump(source, passes, options);
}

} // namespace usca::core

#endif // USCA_CORE_TRACE_STREAM_H
