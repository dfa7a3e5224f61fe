#ifndef CHARIOTS_CHARIOTS_BATCHER_H_
#define CHARIOTS_CHARIOTS_BATCHER_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chariots/filter_map.h"
#include "chariots/record.h"
#include "common/clock.h"
#include "common/executor.h"

namespace chariots::geo {

/// A batcher (paper §6.2): groups records by destination filter and hands
/// each group to its filter. Local client records are buffered, one buffer
/// per filter, and a buffer is flushed when it reaches the size threshold or
/// on a timer so sparse traffic is not delayed indefinitely. A replication
/// batch from a remote datacenter is already a batch — the peer's sender
/// built it — so SubmitBatch() groups it and flushes it at once, never
/// waiting for the timer. Batchers are completely independent of each
/// other — adding one requires no coordination. The flush timer is a
/// periodic task on the shared executor, not a dedicated thread.
class Batcher {
 public:
  /// Delivers a flushed batch to filter `filter_id`.
  using FlushFn =
      std::function<void(uint32_t filter_id, std::vector<GeoRecord> batch)>;

  Batcher(const FilterMap* filter_map, size_t flush_records,
          int64_t flush_interval_nanos, FlushFn flush,
          Executor* executor = nullptr);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Starts the background flush timer.
  void Start();

  /// Flushes everything and stops the timer.
  void Stop();

  /// Routes `record` into the buffer of its championing filter; flushes
  /// that buffer if it reached the threshold.
  void Submit(GeoRecord record);

  /// Groups an already-formed batch (a decoded replication batch) by
  /// championing filter and flushes every group immediately, bypassing the
  /// buffers and the timer. Arrival order is kept within each group.
  void SubmitBatch(std::vector<GeoRecord> records);

  /// Forces all buffers out immediately.
  void FlushAll();

  uint64_t records_in() const { return records_in_.load(); }
  uint64_t batches_out() const { return batches_out_.load(); }

 private:
  /// Hands one batch to flush_, with the stage's batch accounting.
  void Deliver(uint32_t filter_id, std::vector<GeoRecord> batch);

  const FilterMap* const filter_map_;
  const size_t flush_records_;
  const int64_t flush_interval_nanos_;
  FlushFn flush_;
  Executor* const executor_;

  std::mutex mu_;
  std::unordered_map<uint32_t, std::vector<GeoRecord>> buffers_;
  std::atomic<bool> stop_{true};
  Executor::TimerToken timer_token_;
  std::atomic<uint64_t> records_in_{0};
  std::atomic<uint64_t> batches_out_{0};
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_BATCHER_H_
