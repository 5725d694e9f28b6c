#ifndef RANKJOIN_MINISPARK_SHUFFLE_H_
#define RANKJOIN_MINISPARK_SHUFFLE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/sync.h"
#include "minispark/approx_size.h"
#include "minispark/context.h"
#include "minispark/fault.h"
#include "minispark/partitioner.h"
#include "minispark/serde.h"
#include "minispark/trace.h"

namespace rankjoin::minispark {

template <typename T>
class Dataset;

/// Bytes one shuffle record contributes to the budget/volume meters:
/// the exact serialized size when a usable Serde<T> exists, the
/// ApproxSize estimate otherwise. Record types without a Serde shuffle
/// resident-only — every spill/serialize path below is compiled out for
/// them (and the plan linter raises MS004 when a spill budget is set).
template <typename T>
uint64_t ShuffleRecordBytes(const T& record) {
  if constexpr (has_serde_v<T>) {
    return Serde<T>::Size(record);
  } else {
    return ApproxSize(record);
  }
}

/// One spilled run segment: `records` serialized records of one target
/// bucket, at [offset, offset + bytes) of the owning map task's spill
/// file. A bucket spilled several times holds several segments, in
/// arrival order. `crc` is the CRC-32 of the payload, taken at write
/// time and verified on read (see ShuffleService::ReadBucket).
struct SpillSegment {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t records = 0;
  uint32_t crc = 0;
};

/// Append-only temp file holding the serialized spill runs of ONE map
/// task. Appends happen from that task's thread during the shuffle-write
/// stage; after FinishWrites, read tasks read concurrently, each through
/// its own Reader (separate file handle, so no seek contention). The
/// file is deleted when the SpillFile dies — i.e. as soon as the shuffle
/// that produced it has been fully read, or the shuffle is torn down on
/// a failure path (the destructor IS the RAII cleanup guard; a failed
/// stage never strands temp files).
///
/// I/O failures do not abort: the file poisons itself (ok() turns
/// false), the owning ShuffleService degrades to resident-only
/// buffering, and reads fall back to lineage recovery.
///
/// Both the write handle and every Reader open with O_CLOEXEC: spill
/// fds must never leak into a forked child (the chaos harness forks
/// subprocesses around SIGKILL tests).
class SpillFile {
 public:
  explicit SpillFile(std::string path);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// False once opening or any write failed.
  bool ok() const { return ok_; }

  /// Appends `bytes` bytes; on success stores the offset they start at
  /// in `*offset` and returns true. Returns false (poisoning the file)
  /// on a write error — including a short write, the userspace face of
  /// ENOSPC.
  bool Append(const char* data, size_t bytes, uint64_t* offset);

  /// Closes the write handle; call before any Reader opens.
  void FinishWrites();

  const std::string& path() const { return path_; }
  uint64_t bytes_written() const { return bytes_written_; }

  /// A private read handle onto the file. Reads use pread, so Readers
  /// never contend on a shared file position.
  class Reader {
   public:
    explicit Reader(const std::string& path);
    ~Reader();

    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// False when the file could not be opened (e.g. gone).
    bool ok() const { return fd_ >= 0; }

    /// Reads [offset, offset + bytes) into `*buf` (replacing it).
    /// Returns false on a short or failed read.
    bool TryReadAt(uint64_t offset, uint64_t bytes, std::string* buf);

   private:
    int fd_ = -1;
  };

 private:
  std::string path_;
  int fd_ = -1;
  uint64_t bytes_written_ = 0;
  bool ok_ = false;
};

/// The shuffle subsystem: owns the map side of one shuffle.
///
/// Each map task streams its records into per-target buckets
/// (`Add(map_index, bucket, record)`). Buckets stay resident until the
/// job-wide budget (`Context::Options::shuffle_memory_budget_bytes`,
/// tracked as serialized size across all map tasks of this shuffle) is
/// exceeded; the task that crosses the line then serializes its resident
/// buckets through Serde<T> and appends them to its spill file as one
/// run (checksummed per bucket), releasing the memory. `FinishWrite()`
/// closes the write side and folds per-task sizes into per-bucket totals.
/// `ReadBucket(bucket, fn)` then streams every record of one bucket back:
/// mapper order, and within one mapper the spilled runs (oldest first)
/// followed by the resident tail — which reproduces exactly the
/// per-bucket arrival order, so spilling never changes shuffle output.
///
/// Fault tolerance:
///  - every spilled bucket run carries a CRC-32, verified (and the whole
///    run pre-read) BEFORE any record of the mapper's bucket is emitted;
///  - a corrupt or missing run triggers re-execution of the owning map
///    task from the retained lineage closure (SetRecovery), regenerating
///    the bucket byte-identically; without a registered closure the read
///    fails with a NonRetryableError Status instead of emitting garbage;
///  - when the spill directory is unwritable the service degrades to
///    resident-only buffering (Context::MarkSpillDegraded) rather than
///    failing the job;
///  - ResetMapTask() clears one map task's state so a retried write
///    attempt starts from a clean slate.
///
/// Thread contract: Add() concurrently for DISTINCT map_index values
/// (one writer per map task); FinishWrite() from the driver between the
/// write and read stages; ReadBucket() concurrently for DISTINCT
/// buckets, each bucket read at most once (resident records are moved
/// out).
template <typename T>
class ShuffleService {
 public:
  /// Lineage recovery closure: re-executes map task `map_task`,
  /// collecting each record routed to `bucket` via `collect(record)`, in
  /// the original arrival order.
  using RecoverFn = std::function<void(
      int map_task, int bucket, const std::function<void(const T&)>& collect)>;

  ShuffleService(Context* ctx, int num_map_tasks, int num_buckets)
      : ctx_(ctx),
        id_(ctx->NextShuffleId()),
        num_buckets_(num_buckets),
        budget_(ctx->shuffle_memory_budget_bytes()),
        tasks_(static_cast<size_t>(num_map_tasks)) {
    RANKJOIN_CHECK(num_map_tasks >= 0);
    RANKJOIN_CHECK(num_buckets >= 1);
    for (MapTask& mt : tasks_) {
      mt.resident.resize(static_cast<size_t>(num_buckets_));
      mt.segments.resize(static_cast<size_t>(num_buckets_));
      mt.bucket_bytes.assign(static_cast<size_t>(num_buckets_), 0);
      mt.bucket_records.assign(static_cast<size_t>(num_buckets_), 0);
    }
  }

  int num_buckets() const { return num_buckets_; }

  /// Context-unique id of this shuffle (fault-injection coordinate).
  uint64_t id() const { return id_; }

  /// Registers the lineage closure ReadBucket falls back to when spill
  /// data is corrupt or missing. Must be set before the write stage so
  /// it captures the same routing the write used.
  void SetRecovery(RecoverFn fn) { recover_ = std::move(fn); }

  /// Clears map task `map_index` back to its post-construction state (a
  /// retried write attempt starts clean instead of double-adding). The
  /// spill file, if any, is kept open for reuse — segments abandoned by
  /// the failed attempt become dead bytes in it.
  void ResetMapTask(int map_index) {
    MapTask& mt = tasks_[static_cast<size_t>(map_index)];
    for (auto& bucket : mt.resident) std::vector<T>().swap(bucket);
    for (auto& segs : mt.segments) segs.clear();
    std::fill(mt.bucket_bytes.begin(), mt.bucket_bytes.end(), 0);
    std::fill(mt.bucket_records.begin(), mt.bucket_records.end(), 0);
    resident_total_.fetch_sub(mt.resident_bytes, std::memory_order_relaxed);
    mt.resident_bytes = 0;
    mt.spilled_bytes = 0;
    mt.spill_runs = 0;
  }

  /// Map side: routes one record of map task `map_index` to `bucket`.
  void Add(int map_index, int bucket, const T& record) {
    MapTask& mt = tasks_[static_cast<size_t>(map_index)];
    mt.resident[static_cast<size_t>(bucket)].push_back(record);
    const uint64_t size = ShuffleRecordBytes(record);
    mt.bucket_bytes[static_cast<size_t>(bucket)] += size;
    mt.bucket_records[static_cast<size_t>(bucket)] += 1;
    mt.resident_bytes += size;
    // Spill when the job-wide meter crosses the budget — but only a
    // task holding at least its fair share (budget / 2·tasks), else a
    // task whose buckets are tiny would thrash out single records while
    // another task owns the memory. If every task is below the share,
    // the total is below budget/2 and nobody needs to spill. A record
    // type without a usable Serde cannot spill at all; its shuffles
    // stay resident regardless of the budget (lint diagnostic MS004).
    if constexpr (has_serde_v<T>) {
      if (budget_ > 0 &&
          resident_total_.fetch_add(size, std::memory_order_relaxed) + size >
              budget_ &&
          mt.resident_bytes * 2 * tasks_.size() >= budget_) {
        SpillTask(map_index, &mt);
      }
    }
  }

  /// Driver-side barrier after the write stage: closes spill write
  /// handles and totals the per-bucket/per-task accounting.
  void FinishWrite() {
    bucket_bytes_.assign(static_cast<size_t>(num_buckets_), 0);
    bucket_records_.assign(static_cast<size_t>(num_buckets_), 0);
    for (MapTask& mt : tasks_) {
      if (mt.spill) mt.spill->FinishWrites();
      for (int b = 0; b < num_buckets_; ++b) {
        bucket_bytes_[static_cast<size_t>(b)] +=
            mt.bucket_bytes[static_cast<size_t>(b)];
        bucket_records_[static_cast<size_t>(b)] +=
            mt.bucket_records[static_cast<size_t>(b)];
      }
      spilled_bytes_ += mt.spilled_bytes;
      spilled_runs_ += mt.spill_runs;
    }
  }

  /// Serialized payload bytes per target bucket (resident + spilled).
  /// Valid after FinishWrite().
  const std::vector<uint64_t>& bucket_bytes() const { return bucket_bytes_; }

  /// Size distribution of every spill segment this shuffle wrote
  /// (telemetry; recorded as segments land, so it is also valid during
  /// a pipelined exchange).
  const Histogram& spill_segment_hist() const { return spill_segment_hist_; }

  /// Total records destined for `bucket`. Valid after FinishWrite().
  uint64_t RecordsInBucket(int bucket) const {
    return bucket_records_[static_cast<size_t>(bucket)];
  }

  uint64_t spilled_bytes() const { return spilled_bytes_; }
  uint64_t spilled_runs() const { return spilled_runs_; }

  /// Spill runs regenerated from lineage because their data was corrupt
  /// or missing at read time.
  uint64_t recovered_runs() const {
    return recovered_runs_.load(std::memory_order_relaxed);
  }

  /// Outcome of the write stage; reads of a failed shuffle short-circuit
  /// on it instead of emitting partial data.
  const Status& write_status() const { return write_status_; }
  void set_write_status(Status status) { write_status_ = std::move(status); }

  /// Deletes every spill file now (failure-path cleanup; normally the
  /// files die with the service after the read stage). Reading after
  /// this is invalid.
  void DiscardSpills() {
    for (MapTask& mt : tasks_) {
      mt.spill.reset();
      for (auto& segs : mt.segments) segs.clear();
    }
  }

  /// Paths of the spill files currently owned (tests use this to corrupt
  /// or delete them and exercise recovery).
  std::vector<std::string> spill_paths() const {
    std::vector<std::string> out;
    for (const MapTask& mt : tasks_) {
      if (mt.spill) out.push_back(mt.spill->path());
    }
    return out;
  }

  /// Read side: streams every record destined for `bucket` into
  /// `fn(T&&)`. See the class comment for ordering, integrity
  /// verification, and the thread contract.
  template <typename Fn>
  void ReadBucket(int bucket, Fn&& fn) {
    for (size_t m = 0; m < tasks_.size(); ++m) {
      ReadMapperBucket(static_cast<int>(m), bucket, fn);
    }
  }

  /// One mapper's contribution to `bucket` — the unit a pipelined reader
  /// consumes as soon as that mapper commits. ReadBucket is exactly
  /// this over all mappers in index order, which is why the pipelined
  /// and barrier paths emit byte-identical partitions.
  template <typename Fn>
  void ReadMapperBucket(int map_index, int bucket, Fn&& fn) {
    MapTask& mt = tasks_[static_cast<size_t>(map_index)];
    // Serde-less types never spill, so their segment lists stay
    // empty; the whole spill path is compiled out for them.
    if constexpr (has_serde_v<T>) {
      if (!mt.segments[static_cast<size_t>(bucket)].empty()) {
        if (!EmitSpilledBucket(mt, bucket, fn)) {
          RecoverMapperBucket(map_index, mt, bucket, fn);
        }
        return;
      }
    }
    for (T& t : mt.resident[static_cast<size_t>(bucket)]) fn(std::move(t));
  }

  /// --- Pipelined mode (Context::Options::pipelined_stages) ----------
  ///
  /// In a pipelined exchange the write stage still runs its map tasks on
  /// the pool, but each task PUBLISHES its buckets at the end of its
  /// successful attempt body instead of waiting for the stage barrier:
  /// the spill handle is flushed and the mapper marked committed, and
  /// dedicated reader threads (one per output partition) consume mappers
  /// in index order as they commit. A failed attempt never publishes —
  /// retries reset the mapper (ResetMapTask) and re-run it, so readers
  /// only ever observe a mapper's final, committed state; a producer-side
  /// retry is invisible to consumers by construction. Publish applies
  /// backpressure through a bounded window: map task m blocks while
  /// m >= lowest-unconsumed-mapper + window. The window is indexed, not
  /// a committed count — readers drain mappers in index order, so an
  /// index window always lets the lowest unconsumed mapper publish and
  /// is deadlock-free, where counting committed-but-unconsumed mappers
  /// is not (high-index mappers may commit first and fill it). The wait
  /// also polls Context::CurrentTaskCancelled() so a cancelled stage
  /// (another task failed permanently) cannot wedge on a window that
  /// will no longer advance.

  /// Arms pipelined mode; call before the write stage starts.
  void BeginPipelined(int num_readers, int window) {
    pipe_ = std::make_unique<PipelinedBoard>();
    // No concurrency yet (the write stage has not been submitted), but
    // the board's fields are guarded, so initialize them under the lock.
    MutexLock lock(pipe_->mu);
    pipe_->committed.assign(tasks_.size(), 0);
    pipe_->consumed.assign(tasks_.size(), 0);
    pipe_->num_readers = num_readers;
    pipe_->window = std::max(1, window);
  }

  /// Commits map task `map_index` for consumption: flushes its spill
  /// handle (idempotent; the barrier-path FinishWrite reuses the same
  /// close), wakes readers, then blocks inside the publish window. Call
  /// as the LAST statement of the write task body — a task's attempts
  /// run one after another and a failed attempt never reaches this
  /// point, so reaching it means the attempt owns the mapper's final
  /// state.
  void PublishMapTask(int map_index) {
    MapTask& mt = tasks_[static_cast<size_t>(map_index)];
    if (mt.spill) mt.spill->FinishWrites();
    const auto publish_begin = std::chrono::steady_clock::now();
    {
      MutexLock lock(pipe_->mu);
      pipe_->committed[static_cast<size_t>(map_index)] = 1;
      pipe_->cv.NotifyAll();
      while (!pipe_->aborted && map_index >= pipe_->low + pipe_->window) {
        pipe_->cv.WaitFor(lock, std::chrono::milliseconds(2));
        if (Context::CurrentTaskCancelled()) break;
      }
    }
    // Backpressure telemetry: how long this mapper sat blocked in the
    // bounded publish window (0 when readers were keeping up).
    ctx_->telemetry().pipeline_wait_us().Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - publish_begin)
            .count()));
  }

  /// Blocks until mapper `map_index` commits; false if the exchange
  /// aborted first (the reader must stop — the mapper may never commit).
  bool AwaitMapperCommitted(int map_index) {
    MutexLock lock(pipe_->mu);
    while (!pipe_->aborted &&
           pipe_->committed[static_cast<size_t>(map_index)] == 0) {
      pipe_->cv.Wait(lock);
    }
    return !pipe_->aborted;
  }

  /// One reader is done with mapper `map_index`. When ALL readers are,
  /// the mapper's resident bytes leave the budget meter (its memory is
  /// moved out) and the window's low watermark advances — this is what
  /// lets out-of-core runs overlap: upstream buckets are released while
  /// the write stage is still producing later mappers.
  void FinishMapperConsumed(int map_index) {
    MutexLock lock(pipe_->mu);
    if (++pipe_->consumed[static_cast<size_t>(map_index)] ==
        pipe_->num_readers) {
      MapTask& mt = tasks_[static_cast<size_t>(map_index)];
      // Every bucket of this mapper has been moved out; free the husks
      // so the memory really returns while later mappers still produce.
      for (auto& bucket : mt.resident) std::vector<T>().swap(bucket);
      resident_total_.fetch_sub(mt.resident_bytes, std::memory_order_relaxed);
      mt.resident_bytes = 0;
      while (pipe_->low < static_cast<int>(tasks_.size()) &&
             pipe_->consumed[static_cast<size_t>(pipe_->low)] ==
                 pipe_->num_readers) {
        ++pipe_->low;
      }
      pipe_->cv.NotifyAll();
    }
  }

  /// Fails the exchange: wakes every blocked publisher and reader. Both
  /// a write-stage failure (driver, after RunStage returns) and a reader
  /// error (the reader itself) must abort — a stalled reader would
  /// otherwise block publishers on a window that can never advance, and
  /// vice versa. First status wins.
  void AbortPipelined(Status status) {
    MutexLock lock(pipe_->mu);
    if (!pipe_->aborted) {
      pipe_->aborted = true;
      pipe_->abort_status = std::move(status);
    }
    pipe_->cv.NotifyAll();
  }

  Status pipelined_abort_status() {
    MutexLock lock(pipe_->mu);
    return pipe_->aborted ? pipe_->abort_status : Status::OK();
  }

 private:
  /// Map-side state of one map task. Only its own task thread touches it
  /// during the write stage.
  struct MapTask {
    /// Per-bucket resident records, in arrival order.
    std::vector<std::vector<T>> resident;
    /// Per-bucket spilled segments, oldest first.
    std::vector<std::vector<SpillSegment>> segments;
    /// Per-bucket serialized size / record count (resident + spilled).
    std::vector<uint64_t> bucket_bytes;
    std::vector<uint64_t> bucket_records;
    std::unique_ptr<SpillFile> spill;
    uint64_t resident_bytes = 0;
    uint64_t spilled_bytes = 0;
    uint64_t spill_runs = 0;
  };

  /// Serializes all of `mt`'s resident buckets to its spill file as one
  /// run (one checksummed segment per bucket) and releases the memory.
  /// Runs on the map task's own thread, so the spill span lands on that
  /// worker's trace track, nested inside the task span. Any I/O failure
  /// degrades the context to resident-only buffering instead of
  /// aborting: the unspilled records simply stay in memory.
  void SpillTask(int map_index, MapTask* mt) {
    if (mt->resident_bytes == 0) return;
    if (ctx_->spill_degraded()) return;
    TraceSink* sink = ctx_->tracer().enabled() ? &ctx_->tracer() : nullptr;
    const int64_t start_us = sink != nullptr ? sink->NowMicros() : 0;
    if (!mt->spill) {
      Result<std::string> path = ctx_->NewSpillFilePath();
      if (!path.ok()) {
        ctx_->MarkSpillDegraded(path.status());
        return;
      }
      auto spill = std::make_unique<SpillFile>(*path);
      if (!spill->ok()) {
        ctx_->MarkSpillDegraded(
            Status::IoError("cannot open spill file: " + *path));
        return;
      }
      mt->spill = std::move(spill);
    }
    FaultInjector& injector = ctx_->fault_injector();
    const uint64_t run = mt->spill_runs;
    std::string buf;
    uint64_t freed = 0;
    bool wrote_any = false;
    // Set when the disk-pressure policy is kFail: thrown AFTER the
    // budget accounting below so the meters stay coherent even on the
    // failure path.
    Status fail_status;
    for (int b = 0; b < num_buckets_; ++b) {
      std::vector<T>& bucket = mt->resident[static_cast<size_t>(b)];
      if (bucket.empty()) continue;
      buf.clear();
      for (const T& t : bucket) Serde<T>::Write(t, &buf);
      // Checksum first; an injected corruption flips a payload byte
      // AFTER the CRC is taken, so the read side detects the mismatch
      // and recovers from lineage — exactly like real disk rot.
      const uint32_t crc = Crc32(buf.data(), buf.size());
      if (injector.enabled() && !buf.empty() &&
          injector.SpillCorrupt(id_, map_index, run, b)) {
        buf[buf.size() / 2] ^= 0x5A;
      }
      uint64_t offset = 0;
      // The spill_enospc chaos site fires where a full disk would: at
      // the write itself, before any bytes land.
      const bool injected_enospc =
          injector.enabled() && injector.SpillEnospc(id_, map_index, run, b);
      if (injected_enospc ||
          !mt->spill->Append(buf.data(), buf.size(), &offset)) {
        const Status cause = Status::IoError(
            std::string("spill write failed") +
            (injected_enospc ? " (injected ENOSPC): " : ": ") +
            mt->spill->path());
        if (ctx_->disk_pressure_policy() == DiskPressurePolicy::kFail) {
          fail_status = cause;
        } else {
          // kDropCheckpoints: degrade — spills stay
          // resident, checkpointing stops — and keep running.
          ctx_->OnSpillDiskPressure(cause);
        }
        break;  // already-written segments stay valid; rest stays resident
      }
      mt->segments[static_cast<size_t>(b)].push_back(
          SpillSegment{offset, buf.size(), bucket.size(), crc});
      mt->spilled_bytes += buf.size();
      spill_segment_hist_.Record(buf.size());
      ctx_->telemetry().spill_segment_bytes().Record(buf.size());
      ctx_->telemetry().AddSpilledBytes(buf.size());
      freed += buf.size();
      wrote_any = true;
      // swap, not clear(): actually give the memory back.
      std::vector<T>().swap(bucket);
    }
    if (wrote_any) ++mt->spill_runs;
    resident_total_.fetch_sub(freed, std::memory_order_relaxed);
    mt->resident_bytes -= freed;
    if (sink != nullptr) {
      sink->Record({"spill run", "spill", CurrentTraceTid(), start_us,
                    sink->NowMicros() - start_us, -1, 0});
    }
    if (!fail_status.ok()) {
      // kFail policy: the job surfaces a structured IoError instead of
      // silently degrading. Non-retryable — a full disk does not heal
      // between attempts, and a deterministic injection would re-fire.
      ctx_->counters().Add("fault.disk.enospc", 1);
      ctx_->counters().Add("fault.disk.failed", 1);
      ctx_->telemetry().OnDiskPressure();
      throw NonRetryableError(std::move(fail_status));
    }
  }

  /// Validates and emits one mapper's `bucket` from its spill file plus
  /// resident tail. Validate-then-emit: every segment is read and
  /// checksummed BEFORE the first record is pushed into `fn`, so a
  /// corrupt run never leaks partial output. Returns false (having
  /// emitted nothing) when any segment is unreadable or fails its CRC.
  /// Payloads are retained from the validation pass only up to a cap:
  /// spilling happens precisely under memory pressure, so buffering a
  /// mapper's whole bucket could transiently hold many times the shuffle
  /// budget — segments beyond the cap are checksummed, dropped, and
  /// re-read (and re-verified) one at a time during emission.
  template <typename Fn>
  bool EmitSpilledBucket(MapTask& mt, int bucket, Fn&& fn) {
    if (!mt.spill) return false;
    SpillFile::Reader reader(mt.spill->path());
    if (!reader.ok()) return false;
    const uint64_t buffer_cap =
        std::max<uint64_t>(budget_, uint64_t{1} << 20);
    uint64_t buffered = 0;
    const std::vector<SpillSegment>& segs =
        mt.segments[static_cast<size_t>(bucket)];
    // One entry per segment, in emission order; an empty payload for a
    // non-empty segment means "re-read at emit time".
    std::vector<std::string> payloads;
    payloads.reserve(segs.size());
    for (const SpillSegment& seg : segs) {
      std::string buf;
      if (!reader.TryReadAt(seg.offset, seg.bytes, &buf)) return false;
      if (Crc32(buf.data(), buf.size()) != seg.crc) return false;
      if (buffered + seg.bytes <= buffer_cap) {
        buffered += seg.bytes;
        payloads.push_back(std::move(buf));
      } else {
        payloads.emplace_back();
      }
    }
    bool emitted = false;
    size_t next = 0;
    for (const SpillSegment& seg : segs) {
      std::string buf = std::move(payloads[next++]);
      if (buf.empty() && seg.bytes > 0) {
        // Dropped by the cap above. The segment already validated and
        // the handle is still open, so a failure here is disk rot
        // between the two passes: with nothing emitted yet, lineage
        // recovery can still take over; afterwards falling back would
        // emit the whole bucket twice, so it must surface as a
        // permanent error instead.
        const bool ok = reader.TryReadAt(seg.offset, seg.bytes, &buf) &&
                        Crc32(buf.data(), buf.size()) == seg.crc;
        if (!ok) {
          if (!emitted) return false;
          throw NonRetryableError(Status::IoError(
              "spill segment of '" + mt.spill->path() +
              "' validated but failed its re-read during emission"));
        }
      }
      const char* p = buf.data();
      const char* e = p + buf.size();
      for (uint64_t i = 0; i < seg.records; ++i) {
        T record;
        Serde<T>::Read(&p, e, &record);
        emitted = true;
        fn(std::move(record));
      }
      RANKJOIN_CHECK(p == e);
    }
    for (T& t : mt.resident[static_cast<size_t>(bucket)]) fn(std::move(t));
    return true;
  }

  /// Lineage fallback: re-executes map task `map_index` through the
  /// retained recovery closure and emits its `bucket` in the original
  /// arrival order — byte-identical to what the healthy read would have
  /// produced. Throws NonRetryableError when no closure is registered or
  /// the re-execution itself fails (the read task must not be retried:
  /// its other mappers' resident data is already consumed).
  template <typename Fn>
  void RecoverMapperBucket(int map_index, MapTask& mt, int bucket, Fn&& fn) {
    const uint64_t runs = mt.segments[static_cast<size_t>(bucket)].size();
    if (!recover_) {
      throw NonRetryableError(Status::IoError(
          "shuffle " + std::to_string(id_) + ": spill data of map task " +
          std::to_string(map_index) +
          " is corrupt or missing and no lineage recovery is registered"));
    }
    TraceSink* sink = ctx_->tracer().enabled() ? &ctx_->tracer() : nullptr;
    const int64_t start_us = sink != nullptr ? sink->NowMicros() : 0;
    // Regenerate the whole bucket before emitting any of it, so a failed
    // re-execution emits nothing.
    std::vector<T> regen;
    try {
      // Serialized: two read tasks recovering the SAME map task would
      // re-execute its lineage concurrently, racing on any per-partition
      // user state the chain touches (e.g. the pipelines' stat slots).
      MutexLock lock(recover_mu_);
      // Mask the read task's trace while re-streaming lineage: recovery
      // replays records the write stage already tallied, so letting the
      // chain's OpCounts land here would double-count logical dataflow.
      ScopedTaskTrace mask(nullptr);
      recover_(map_index, bucket,
               [&regen](const T& t) { regen.push_back(t); });
    } catch (const NonRetryableError&) {
      throw;
    } catch (const std::exception& e) {
      throw NonRetryableError(Status::IoError(
          std::string("spill recovery re-execution failed: ") + e.what()));
    }
    recovered_runs_.fetch_add(runs, std::memory_order_relaxed);
    ctx_->counters().Add("fault.spill.recovered", runs);
    if (sink != nullptr) {
      sink->Record({"spill recovery", "spill-recovery", CurrentTraceTid(),
                    start_us, sink->NowMicros() - start_us, map_index, 0});
    }
    for (T& t : regen) fn(std::move(t));
  }

  /// Producer/consumer state of a pipelined exchange (see the pipelined
  /// section above). Allocated by BeginPipelined; absent in barrier runs.
  struct PipelinedBoard {
    Mutex mu;
    CondVar cv;
    /// Per-mapper commit flags and per-mapper count of readers done.
    std::vector<char> committed GUARDED_BY(mu);
    std::vector<int> consumed GUARDED_BY(mu);
    int num_readers GUARDED_BY(mu) = 0;
    int window GUARDED_BY(mu) = 1;
    /// Lowest mapper not yet consumed by every reader.
    int low GUARDED_BY(mu) = 0;
    bool aborted GUARDED_BY(mu) = false;
    Status abort_status GUARDED_BY(mu);
  };

  Context* ctx_;
  uint64_t id_;
  int num_buckets_;
  uint64_t budget_;
  std::vector<MapTask> tasks_;
  std::unique_ptr<PipelinedBoard> pipe_;
  /// Resident serialized bytes across ALL map tasks (the budget meter).
  std::atomic<uint64_t> resident_total_{0};
  /// Spill segment sizes as written (tasks record concurrently;
  /// Histogram is atomic inside).
  Histogram spill_segment_hist_;
  /// Filled by FinishWrite().
  std::vector<uint64_t> bucket_bytes_;
  std::vector<uint64_t> bucket_records_;
  uint64_t spilled_bytes_ = 0;
  uint64_t spilled_runs_ = 0;
  std::atomic<uint64_t> recovered_runs_{0};
  RecoverFn recover_;
  /// Serializes lineage re-execution (see RecoverMapperBucket). Pure
  /// critical-section mutex: it guards the side effects of re-running
  /// lineage (per-partition user state), not any member of this class.
  Mutex recover_mu_;
  Status write_status_;
};

namespace internal {

/// The write side both exchanges share. Registers the lineage closure on
/// `service`, then runs the shuffle-write stage of `input`: one task per
/// input partition streams the partition — executing any pending narrow
/// chain inside the task — sends each record to bucket `route(record)`,
/// and ends its attempt with `commit(i)` (the pipelined exchange
/// publishes the mapper there; a failed attempt never reaches it).
/// `route` must be a function of the record alone: a retried attempt and
/// lineage recovery re-stream the partition and must send every record
/// where the first attempt did. `drain(status)` runs once the stage is
/// over, before its totals are read (the pipelined exchange stops its
/// readers there). The stage record is annotated with the fused ops
/// (ending in `op`) and the spill counters and added to the job; a
/// failed stage poisons the service (write_status) and discards its
/// spill files. Returns the stage's status.
template <typename T, typename Route, typename Commit, typename Drain>
Status RunShuffleWrite(const Dataset<T>& input, ShuffleService<T>* service,
                       const std::string& name, const std::string& op,
                       Route route, Commit commit, Drain drain) {
  Context* ctx = input.context();
  // The retained lineage closure: holds the input handle (keeping its
  // materialized partitions or pending chain alive for the shuffle's
  // lifetime) so a corrupt or missing spill run can be regenerated at
  // read time by re-running the owning map task. A pipelined reader
  // only reads committed mappers, so re-streaming one is safe even while
  // other map tasks are still writing.
  service->SetRecovery([input, route](
                           int m, int bucket,
                           const std::function<void(const T&)>& collect) {
    input.StreamPartition(m, [&](const T& t) {
      if (route(t) == bucket) collect(t);
    });
  });
  const std::string fused = input.pending_ops();
  StageMetrics stage = ctx->RunStage(
      name + "/shuffle-write", input.num_partitions(), [&](int i) {
        // A retried attempt starts from a clean slate.
        service->ResetMapTask(i);
        // Deadline/cancel probe at record granularity: a long fused
        // chain must notice a stop request without waiting for the
        // stage barrier.
        uint64_t probe = 0;
        input.StreamPartition(i, [&](const T& t) {
          if (((++probe) & 1023u) == 0 && ctx->StopRequested()) {
            throw NonRetryableError(ctx->StopStatus());
          }
          service->Add(i, route(t), t);
        });
        commit(i);
      });
  drain(stage.status);
  service->FinishWrite();
  stage.fused_ops = fused.empty() ? op : fused + "+" + op;
  stage.spilled_bytes = service->spilled_bytes();
  stage.spilled_runs = service->spilled_runs();
  for (uint64_t bucket : service->bucket_bytes()) {
    stage.shuffle_bucket_bytes.Record(bucket);
    ctx->telemetry().shuffle_bucket_bytes().Record(bucket);
  }
  stage.spill_segment_bytes.Merge(service->spill_segment_hist());
  const Status status = stage.status;
  if (!status.ok()) {
    service->set_write_status(status);
    service->DiscardSpills();
  }
  ctx->AddStage(std::move(stage));
  return status;
}

/// Runs the barrier shuffle-write stage of `input` (RunShuffleWrite)
/// into a fresh ShuffleService with `num_buckets` buckets. A failed
/// input poisons the service without running a stage.
template <typename T, typename Route>
std::shared_ptr<ShuffleService<T>> ShuffleWrite(const Dataset<T>& input,
                                                int num_buckets,
                                                const std::string& name,
                                                Route route) {
  auto service = std::make_shared<ShuffleService<T>>(
      input.context(), input.num_partitions(), num_buckets);
  if (!input.status().ok()) {
    service->set_write_status(input.status());
    return service;
  }
  RunShuffleWrite(input, service.get(), name, "shuffleWrite", route,
                  [](int) {}, [](const Status&) {});
  return service;
}

/// Runs the shuffle-read stage: read task p streams bucket p out of the
/// service (merging spilled runs with resident data, verifying
/// checksums, recovering corrupt runs from lineage) into output
/// partition p. Shuffle volume is counted inside the read tasks while
/// they consume — no post-hoc rescan of the output. A failed write
/// stage, or a failed read task, surfaces through `*out_status` (the
/// returned partitions are then empty/partial and the caller poisons its
/// dataset).
template <typename T>
std::shared_ptr<const std::vector<std::vector<T>>> ShuffleRead(
    Context* ctx, ShuffleService<T>* service, const std::string& name,
    Status* out_status) {
  const int num_out = service->num_buckets();
  auto out =
      std::make_shared<std::vector<std::vector<T>>>(
          static_cast<size_t>(num_out));
  if (!service->write_status().ok()) {
    if (out_status != nullptr) *out_status = service->write_status();
    return out;
  }
  std::vector<uint64_t> task_records(static_cast<size_t>(num_out), 0);
  std::vector<uint64_t> task_bytes(static_cast<size_t>(num_out), 0);
  TraceSink* sink = ctx->tracer().enabled() ? &ctx->tracer() : nullptr;
  StageMetrics read_stage =
      ctx->RunStage(name + "/shuffle-read", num_out, [&](int p) {
        std::vector<T>& dest = (*out)[static_cast<size_t>(p)];
        // Retry hygiene: injected retryable faults fire before the task
        // body runs, so a retried attempt re-enters here with nothing
        // consumed — but keep the slate clean regardless.
        dest.clear();
        dest.reserve(service->RecordsInBucket(p));
        uint64_t records = 0;
        uint64_t bytes = 0;
        const int64_t start_us = sink != nullptr ? sink->NowMicros() : 0;
        // Consumption is destructive (resident buckets are moved out),
        // so once the first record has been emitted a retry of this task
        // would silently re-emit moved-from residue: escalate any
        // genuine mid-consumption failure (a Serde decode error,
        // bad_alloc while growing dest) to a permanent one instead of
        // letting the attempt loop re-run it.
        bool consumed = false;
        const auto non_retryable_from_here = [&](const std::string& what) {
          return NonRetryableError(Status::Internal(
              name + ": shuffle-read task " + std::to_string(p) +
              " failed after consuming shuffle data (not retryable): " +
              what));
        };
        try {
          service->ReadBucket(p, [&](T&& record) {
            consumed = true;
            bytes += ShuffleRecordBytes(record);
            dest.push_back(std::move(record));
            // Deadline/cancel probe; NonRetryableError passes through the
            // catch blocks below unchanged, so the structured stop Status
            // (kDeadlineExceeded / kCancelled) survives to the driver.
            if (((++records) & 1023u) == 0 && ctx->StopRequested()) {
              throw NonRetryableError(ctx->StopStatus());
            }
          });
          if (sink != nullptr) {
            sink->Record({name + "/read-bucket", "shuffle-read",
                          CurrentTraceTid(), start_us,
                          sink->NowMicros() - start_us, p, 0});
          }
        } catch (const NonRetryableError&) {
          throw;
        } catch (const std::exception& e) {
          if (!consumed) throw;
          throw non_retryable_from_here(e.what());
        } catch (...) {
          if (!consumed) throw;
          throw non_retryable_from_here("unknown exception");
        }
        // Per-task accounting goes into slots of driver-owned vectors
        // indexed by the task's own partition — no two tasks share a
        // slot, and the stage barrier publishes them to the driver,
        // which folds them into the StageMetrics below. Metric
        // accumulation here (and everywhere in the engine) follows this
        // task-local-then-merge pattern; nothing increments a shared
        // counter from inside a task loop.
        task_records[static_cast<size_t>(p)] = records;
        task_bytes[static_cast<size_t>(p)] = bytes;
      });
  read_stage.fused_ops = "shuffleRead";
  for (int p = 0; p < num_out; ++p) {
    read_stage.shuffle_records += task_records[static_cast<size_t>(p)];
    read_stage.shuffle_bytes += task_bytes[static_cast<size_t>(p)];
    read_stage.max_partition_size = std::max(
        read_stage.max_partition_size, task_records[static_cast<size_t>(p)]);
  }
  read_stage.materialized_elements = read_stage.shuffle_records;
  read_stage.materialized_bytes = read_stage.shuffle_bytes;
  read_stage.recovered_spill_runs = service->recovered_runs();
  if (!read_stage.status.ok()) {
    if (out_status != nullptr) *out_status = read_stage.status;
    service->DiscardSpills();
  }
  ctx->AddStage(std::move(read_stage));
  return out;
}

/// Pipelined producer/consumer exchange: the overlapped equivalent of
/// ShuffleWrite followed by ShuffleRead (Context::Options::
/// pipelined_stages). The write stage runs on the pool as usual, but
/// every map task publishes its buckets at commit time
/// (ShuffleService::PublishMapTask) and one dedicated reader thread per
/// output bucket consumes mappers as they arrive — repartitioning and
/// downstream local work overlap instead of serializing at the barrier.
/// Output partitions are byte-identical to the barrier path's (same
/// mapper-major order per bucket). `route` is as in RunShuffleWrite.
/// Readers are single-attempt: a reader failure aborts the exchange (it
/// could never be retried anyway — consumption is destructive), as does
/// a failed write stage; either way *out_status carries the first error
/// and the returned partitions are empty.
template <typename T, typename Route>
std::shared_ptr<const std::vector<std::vector<T>>> PipelinedExchange(
    const Dataset<T>& input, int num_buckets, const std::string& name,
    Route route, Status* out_status) {
  Context* ctx = input.context();
  auto service = std::make_shared<ShuffleService<T>>(
      ctx, input.num_partitions(), num_buckets);
  auto out = std::make_shared<std::vector<std::vector<T>>>(
      static_cast<size_t>(num_buckets));
  if (!input.status().ok()) {
    if (out_status != nullptr) *out_status = input.status();
    return out;
  }
  const int num_mappers = input.num_partitions();
  service->BeginPipelined(num_buckets, ctx->pipelined_window());

  std::vector<Status> reader_status(static_cast<size_t>(num_buckets));
  std::vector<double> reader_seconds(static_cast<size_t>(num_buckets), 0.0);
  std::vector<uint64_t> task_records(static_cast<size_t>(num_buckets), 0);
  std::vector<uint64_t> task_bytes(static_cast<size_t>(num_buckets), 0);
  TraceSink* sink = ctx->tracer().enabled() ? &ctx->tracer() : nullptr;
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(num_buckets));
  for (int p = 0; p < num_buckets; ++p) {
    readers.emplace_back([&, p] {
      const auto start = std::chrono::steady_clock::now();
      const int64_t start_us = sink != nullptr ? sink->NowMicros() : 0;
      std::vector<T>& dest = (*out)[static_cast<size_t>(p)];
      uint64_t records = 0;
      uint64_t bytes = 0;
      try {
        for (int m = 0; m < num_mappers; ++m) {
          if (!service->AwaitMapperCommitted(m)) return;
          service->ReadMapperBucket(m, p, [&](T&& record) {
            bytes += ShuffleRecordBytes(record);
            dest.push_back(std::move(record));
            // Deadline/cancel probe: a stopped job aborts the exchange
            // (the catch below) instead of draining every mapper.
            if (((++records) & 1023u) == 0 && ctx->StopRequested()) {
              throw NonRetryableError(ctx->StopStatus());
            }
          });
          service->FinishMapperConsumed(m);
        }
        task_records[static_cast<size_t>(p)] = records;
        task_bytes[static_cast<size_t>(p)] = bytes;
        if (sink != nullptr) {
          sink->Record({name + "/read-bucket", "shuffle-read",
                        CurrentTraceTid(), start_us,
                        sink->NowMicros() - start_us, p, 0});
        }
      } catch (const NonRetryableError& e) {
        reader_status[static_cast<size_t>(p)] = e.status();
        service->AbortPipelined(e.status());
      } catch (const std::exception& e) {
        const Status status = Status::Internal(
            name + ": pipelined shuffle-read task " + std::to_string(p) +
            " failed: " + e.what());
        reader_status[static_cast<size_t>(p)] = status;
        service->AbortPipelined(status);
      } catch (...) {
        const Status status = Status::Internal(
            name + ": pipelined shuffle-read task " + std::to_string(p) +
            " failed: unknown exception");
        reader_status[static_cast<size_t>(p)] = status;
        service->AbortPipelined(status);
      }
      reader_seconds[static_cast<size_t>(p)] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    });
  }

  Status failure = RunShuffleWrite(
      input, service.get(), name, "shuffleWrite(pipelined)", route,
      [&](int i) { service->PublishMapTask(i); },
      [&](const Status& status) {
        // Mappers owned by failed/cancelled tasks will never commit;
        // wake the readers waiting on them.
        if (!status.ok()) service->AbortPipelined(status);
        for (std::thread& reader : readers) reader.join();
      });

  // The read side ran on dedicated threads, not through RunStage —
  // hand-build its stage record so metrics consumers see the usual
  // write/read pair.
  StageMetrics read_stage;
  read_stage.name = name + "/shuffle-read";
  read_stage.task_seconds = std::move(reader_seconds);
  read_stage.fused_ops = "shuffleRead(pipelined)";
  for (int p = 0; p < num_buckets; ++p) {
    read_stage.shuffle_records += task_records[static_cast<size_t>(p)];
    read_stage.shuffle_bytes += task_bytes[static_cast<size_t>(p)];
    read_stage.max_partition_size = std::max(
        read_stage.max_partition_size, task_records[static_cast<size_t>(p)]);
    if (failure.ok() && !reader_status[static_cast<size_t>(p)].ok()) {
      failure = reader_status[static_cast<size_t>(p)];
    }
  }
  read_stage.materialized_elements = read_stage.shuffle_records;
  read_stage.materialized_bytes = read_stage.shuffle_bytes;
  read_stage.recovered_spill_runs = service->recovered_runs();
  read_stage.status = failure;
  ctx->AddStage(std::move(read_stage));
  if (!failure.ok()) {
    service->DiscardSpills();
    if (out_status != nullptr) *out_status = failure;
    // Poisoned exchanges hand back empty partitions, like the barrier
    // path does.
    out->assign(static_cast<size_t>(num_buckets), std::vector<T>());
  }
  return out;
}

}  // namespace internal

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_SHUFFLE_H_
