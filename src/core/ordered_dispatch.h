// Ordered parallel produce/consume — the scheduling core every campaign
// shares.
//
// `count` items are produced by a pool of worker threads, each of which
// owns one long-lived context (e.g. a resettable pipeline plus a
// synthesizer scratch) created once per worker, and the finished records
// are delivered to the sink in strict item order on the calling thread.
// Work distribution is claim-the-next-index; finished records park in a
// bounded reorder buffer so peak memory stays O(threads) records however
// unevenly the workers proceed.  In-order delivery fixes the
// floating-point accumulation order of any downstream statistics, which
// is what makes campaign results bit-identical at every thread count.
//
// Records are recycled.  A producer fills a record object in place, and
// once the sink has returned that object goes back to a producer for a
// later item, so its buffers keep their capacity from item to item.
// Hence two rules: a
// producer must overwrite or clear every field it fills, whatever the
// object held before; and a record is valid only during the sink call
// (the sink may move parts out of it).
//
// Exceptions from context construction, producers or the sink abort the
// run and rethrow on the calling thread.
#ifndef USCA_CORE_ORDERED_DISPATCH_H
#define USCA_CORE_ORDERED_DISPATCH_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace usca::core {

/// Resolves a requested worker count: 0 = hardware concurrency (at least
/// 1), clamped to the item count so no worker starts without work.
inline unsigned resolved_worker_count(unsigned requested,
                                      std::size_t items) noexcept {
  unsigned threads = requested;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
  }
  if (threads == 0) {
    threads = 1;
  }
  if (items > 0 && static_cast<std::size_t>(threads) > items) {
    threads = static_cast<unsigned>(items);
  }
  return threads;
}

/// make_context(worker) -> Ctx; produce(ctx, item, Record&) fills a
/// recycled record; sink(Record&).  `threads` must already be resolved
/// (>= 1).
template <typename Record, typename MakeContext, typename Produce,
          typename Sink>
void ordered_parallel_produce(std::size_t count, unsigned threads,
                              MakeContext&& make_context, Produce&& produce,
                              Sink&& sink) {
  using context_type =
      std::remove_reference_t<std::invoke_result_t<MakeContext&, unsigned>>;
  if (count == 0) {
    return;
  }

  if (threads <= 1) {
    context_type context = make_context(0);
    Record record;
    for (std::size_t i = 0; i < count; ++i) {
      produce(context, i, record);
      sink(record);
    }
    return;
  }

  // The bound keeps peak memory at O(threads) records however unevenly
  // the workers proceed.
  const std::size_t capacity = static_cast<std::size_t>(threads) * 4;

  std::mutex mutex;
  std::condition_variable producers_cv;
  std::condition_variable consumer_cv;
  std::map<std::size_t, Record> reorder;
  std::vector<Record> spares; // delivered records, back for reuse
  std::size_t next_consumed = 0; // count of records already delivered
  std::atomic<std::size_t> next_claim{0};
  bool abort = false;
  std::exception_ptr error;

  const auto fail = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!error) {
      error = std::move(e);
    }
    abort = true;
    producers_cv.notify_all();
    consumer_cv.notify_all();
  };

  const auto worker = [&](unsigned worker_index) {
    try {
      context_type context = make_context(worker_index);
      for (;;) {
        const std::size_t i = next_claim.fetch_add(1);
        if (i >= count) {
          return;
        }
        Record record;
        {
          // Backpressure: stay within `capacity` of the consumer before
          // paying for the production.
          std::unique_lock<std::mutex> lock(mutex);
          producers_cv.wait(lock, [&] {
            return abort || i < next_consumed + capacity;
          });
          if (abort) {
            return;
          }
          if (!spares.empty()) {
            record = std::move(spares.back());
            spares.pop_back();
          }
        }
        produce(context, i, record);
        std::lock_guard<std::mutex> lock(mutex);
        if (abort) {
          return;
        }
        reorder.emplace(i, std::move(record));
        consumer_cv.notify_one();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }

  Record record;
  while (next_consumed < count) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (next_consumed > 0) {
        spares.push_back(std::move(record)); // the one the sink just had
      }
      consumer_cv.wait(lock, [&] {
        return abort || reorder.count(next_consumed) != 0;
      });
      if (abort) {
        break;
      }
      auto it = reorder.find(next_consumed);
      record = std::move(it->second);
      reorder.erase(it);
      ++next_consumed;
      producers_cv.notify_all();
    }
    try {
      sink(record);
    } catch (...) {
      fail(std::current_exception());
      break;
    }
  }

  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

} // namespace usca::core

#endif // USCA_CORE_ORDERED_DISPATCH_H
