#ifndef CHARIOTS_CHARIOTS_REPLICATION_H_
#define CHARIOTS_CHARIOTS_REPLICATION_H_

#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "chariots/atable.h"
#include "chariots/fabric.h"
#include "chariots/record.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/result.h"

namespace chariots::geo {

/// One replication message: the sender's whole awareness table (transitive
/// knowledge piggyback, paper §6.1) plus a run of the sender's local records
/// starting at `first_toid` (empty for pure heartbeats).
struct ReplicationBatch {
  std::string atable;  ///< encoded AwarenessTable
  TOId first_toid = 0;
  std::vector<std::string> records;  ///< encoded GeoRecords, consecutive TOIds
};

std::string EncodeReplicationBatch(const ReplicationBatch& batch);
Result<ReplicationBatch> DecodeReplicationBatch(std::string_view data);

/// Holds this datacenter's *local* records (host == self), indexed by TOId,
/// for the senders to read and ship. Local records are incorporated in
/// strict TOId order (queue admission), so puts are sequential. Old entries
/// are dropped once every replica is known to have them.
class LocalRecordBuffer {
 public:
  LocalRecordBuffer() = default;

  /// Adds the record with TOId `toid` (must be exactly max_toid() + 1).
  void Put(TOId toid, std::string encoded);

  /// Recovery: declares that the buffer starts at `first_toid` (earlier
  /// records were garbage collected — every replica already has them).
  /// Only valid while empty.
  void SetBase(TOId first_toid);

  /// Highest TOId stored (0 if none ever).
  TOId max_toid() const;

  /// Copies up to `max_records` encoded records starting at `from` (only as
  /// far as contiguously available). Returns how many were copied; records
  /// older than the retention floor yield 0 (caller falls back to asking
  /// the peer to recover via another replica — not modeled).
  size_t Read(TOId from, size_t max_records,
              std::vector<std::string>* out) const;

  /// Drops records with TOId < floor.
  void TruncateBelow(TOId floor);

  size_t size() const;

 private:
  mutable std::mutex mu_;
  TOId base_ = 1;  // TOId of front()
  std::deque<std::string> records_;
};

/// The senders stage (paper §6.2): ships local records to every other
/// datacenter, with the awareness table piggybacked. Retransmits from the
/// last *acknowledged* TOId — acknowledgement is simply the peer's awareness
/// row coming back — so datacenter-level failures and partitions heal
/// automatically. One Sender instance can own several destinations; a
/// deployment scales by giving each destination (or destination shard) its
/// own sender.
///
/// New records ship on commit: once a token step incorporates local
/// records, the datacenter posts one TryTick() pass to the executor, so one
/// message carries everything committed by then. The periodic tick remains
/// for what has no commit to trigger it — retransmit backoff and
/// heartbeats — and catches whatever an on-commit pass left behind or
/// skipped.
class Sender {
 public:
  struct Options {
    size_t batch_records = 256;
    int64_t tick_nanos = 1'000'000;         ///< send-loop cadence (1 ms)
    int64_t resend_nanos = 50'000'000;      ///< rewind if unacked (50 ms)
    /// Each consecutive rewind without ack progress doubles the rewind
    /// interval up to this cap; progress resets it to resend_nanos. Keeps a
    /// partitioned destination from being blasted with the same batch.
    /// (resend_nanos == 0 disables backoff: rewind on every tick.)
    int64_t resend_max_nanos = 1'000'000'000;
    int64_t heartbeat_nanos = 10'000'000;   ///< ATable-only message (10 ms)
    /// Executor running the periodic send task (null = Executor::Default()).
    Executor* executor = nullptr;
  };

  /// `clock` null means the executor's clock (so a virtual-time executor
  /// automatically drives the backoff/heartbeat arithmetic too).
  Sender(DatacenterId self, std::vector<DatacenterId> destinations,
         const LocalRecordBuffer* buffer, const AwarenessTable* atable,
         ReplicationFabric* fabric, Options options, Clock* clock = nullptr);
  ~Sender();

  void Start();
  void Stop();

  /// One pass over all destinations; returns records shipped. Thread-safe:
  /// the periodic executor task calls it until it reports idle, and tests
  /// call it directly. Holds the sender's lock across fabric_->Send, which
  /// may block (a TCP connect, a bandwidth-limited link).
  size_t Tick();

  /// Tick() unless another pass holds the sender, in which case it skips
  /// and returns 0: the on-commit pass never queues behind a pass stuck in
  /// Send; the periodic tick ships what it skipped.
  size_t TryTick();

  uint64_t records_sent() const { return records_sent_.load(); }
  uint64_t batches_sent() const { return batches_sent_.load(); }
  /// Retransmission rewinds performed (ack stalls detected).
  uint64_t rewinds() const { return rewinds_.load(); }

 private:
  struct DestState {
    DatacenterId dc;
    TOId acked = 0;              // peer's awareness of us, last observed
    TOId sent_upto = 0;          // optimistic high-water mark
    int64_t last_send_nanos = 0;
    int64_t last_heartbeat_nanos = 0;
    int64_t resend_interval_nanos = 0;  // current backoff (0 = base)
  };

  size_t TickLocked();

  const DatacenterId self_;
  const LocalRecordBuffer* const buffer_;
  const AwarenessTable* const atable_;
  ReplicationFabric* const fabric_;
  const Options options_;
  Executor* const executor_;
  Clock* const clock_;

  std::mutex mu_;
  std::vector<DestState> dests_;
  std::atomic<bool> stop_{true};
  Executor::TimerToken tick_token_;
  std::atomic<uint64_t> records_sent_{0};
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> rewinds_{0};
};

/// The receiving half: decodes replication batches from peers, merges the
/// awareness table, and hands each batch's records to the local pipeline
/// (batchers stage) as one unit, so the batcher flushes it at once.
///
/// Two duplicate/overload defenses before the pipeline sees a record:
///  * records the local knowledge vector already covers (retransmitted
///    after the ack was lost) are dropped here — no pipeline work at all;
///    in-flight duplicates deeper in still get dropped by the filters;
///  * the submit callback may *refuse* the batch (return false) when the
///    pipeline is congested. Shedding is safe precisely because the sender
///    retransmits everything un-acked — awareness only advances on
///    incorporation, so a shed batch is delivered again later.
class Receiver {
 public:
  /// Receives the decoded, deduplicated records of one replication batch
  /// (never empty). Returns false to shed them all (congestion); true if
  /// accepted.
  using SubmitFn = std::function<bool(std::vector<GeoRecord>)>;

  Receiver(DatacenterId self, AwarenessTable* atable, SubmitFn submit);

  /// Fabric handler.
  void OnMessage(DatacenterId from, std::string payload);

  uint64_t records_received() const { return records_received_.load(); }
  uint64_t batches_received() const { return batches_received_.load(); }
  /// Records dropped because the knowledge vector already covered them.
  uint64_t records_deduped() const { return records_deduped_.load(); }
  /// Records refused by the pipeline under congestion.
  uint64_t records_shed() const { return records_shed_.load(); }

 private:
  const DatacenterId self_;
  AwarenessTable* const atable_;
  SubmitFn submit_;
  std::atomic<uint64_t> records_received_{0};
  std::atomic<uint64_t> batches_received_{0};
  std::atomic<uint64_t> records_deduped_{0};
  std::atomic<uint64_t> records_shed_{0};
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_REPLICATION_H_
