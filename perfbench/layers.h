// Layer timing for the traced benchmark run, measured from outside the
// program: an in-memory span recorder, client-side span scopes, and timing
// decorators for the public interfaces the serving stack calls out through
// (storage::TileStore, core::Recommender, core::AllocationStrategy).
//
// Compiled into the traced binary only; the untraced binary carries none of
// this, so its end-to-end figures are free of tracing cost.
//
// Span model: every span has a name, steady-clock start and end, a parent
// (the span open on the same thread when it began; 0 for roots) and a
// request id (inherited from the client's server.request span; 0 on
// executor threads, whose spans are fill roots). A span's self time is its
// duration minus the durations of the spans nested inside it on the same
// thread.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/allocation.h"
#include "core/recommender.h"
#include "storage/tile_store.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kServerRequest,       ///< Client timer around Open/ApplyMove.
  kServerSettle,        ///< Client timer around WaitForPrefetch.
  kPredictAb,           ///< Recommender::Recommend of the ab model.
  kPredictSb,           ///< Recommender::Recommend of the sb model.
  kPredictAlloc,        ///< AllocationStrategy::Allocate.
  kStorageFetchDemand,  ///< TileStore::Fetch on a client thread.
  kStorageFetchFill,    ///< TileStore::Fetch on an executor thread.
  kStorageBatchDemand,  ///< TileStore::FetchBatch on a client thread.
  kStorageBatchFill,    ///< TileStore::FetchBatch on an executor thread.
  kCount,
};

const char* SpanNameString(SpanName name);

/// Per-name totals over every span ended while recording was on.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  /// Keeps at most `max_records_per_thread` spans per thread for the span
  /// file; totals count every span regardless.
  explicit SpanRecorder(std::size_t max_records_per_thread);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Spans ending while recording is off are not counted.
  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }

  /// Marks the calling thread as a client thread (demand, not fill).
  void MarkClientThread();
  /// True when the calling thread was marked by MarkClientThread.
  bool OnClientThread();
  /// Starts a new request on the calling thread; nested spans inherit it.
  void BeginRequest();

  std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)> Totals()
      const;
  std::uint64_t recorded_spans() const;
  std::uint64_t dropped_spans() const;

  /// Writes every kept span as tab-separated values. Call only after every
  /// thread that recorded has been joined.
  bool WriteTsv(const std::string& path) const;

 private:
  friend class ScopedSpan;

  struct Record {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request_id;
    std::int64_t start_ns;
    std::int64_t end_ns;
    SpanName name;
  };
  struct Frame;
  /// One recording thread's state; written only by that thread.
  struct ThreadState {
    std::uint64_t index = 0;
    std::uint64_t next_seq = 0;
    bool client = false;
    std::uint64_t request_id = 0;
    Frame* top = nullptr;
    std::vector<Record> records;
    std::atomic<std::uint64_t> dropped{0};
    std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(SpanName::kCount)>
        calls{}, total_ns{}, self_ns{};
  };
  struct Frame {
    Frame* parent;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  ThreadState* Local();
  std::int64_t NowNs() const;

  const std::size_t max_records_per_thread_;
  const std::int64_t epoch_ns_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_request_id_{0};
  mutable std::mutex mu_;  ///< Guards threads_.
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span on the calling thread. Inert when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  SpanRecorder::ThreadState* state_ = nullptr;
  SpanRecorder::Frame frame_{};
  SpanName name_;
};

/// Times every call into the wrapped store as storage.fetch / storage.batch
/// spans, split by thread into demand and fill, and counts failed slots and
/// the payload bytes of tiles served (for the disk useful-byte ratio).
class TimedTileStore : public fc::storage::TileStore {
 public:
  /// `inner` and `recorder` must outlive the store. `blob_bytes` (may be
  /// null) maps each key to its encoded size on disk.
  TimedTileStore(fc::storage::TileStore* inner, SpanRecorder* recorder,
                 const std::unordered_map<fc::tiles::TileKey, std::uint64_t,
                                          fc::tiles::TileKeyHash>* blob_bytes);

  fc::Result<fc::tiles::TilePtr> Fetch(const fc::tiles::TileKey& key) override;
  std::vector<fc::Result<fc::tiles::TilePtr>> FetchBatch(
      const std::vector<fc::tiles::TileKey>& keys) override;
  bool Contains(const fc::tiles::TileKey& key) const override {
    return inner_->Contains(key);
  }
  const fc::tiles::PyramidSpec& spec() const override { return inner_->spec(); }
  std::uint64_t fetch_count() const override { return inner_->fetch_count(); }
  std::uint64_t query_count() const override { return inner_->query_count(); }

  std::uint64_t batch_tiles_demand() const { return batch_tiles_demand_; }
  std::uint64_t batch_tiles_fill() const { return batch_tiles_fill_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t useful_bytes() const { return useful_bytes_; }

 private:
  void Account(const fc::tiles::TileKey& key,
               const fc::Result<fc::tiles::TilePtr>& result);

  fc::storage::TileStore* inner_;
  SpanRecorder* recorder_;
  const std::unordered_map<fc::tiles::TileKey, std::uint64_t,
                           fc::tiles::TileKeyHash>* blob_bytes_;
  std::atomic<std::uint64_t> batch_tiles_demand_{0};
  std::atomic<std::uint64_t> batch_tiles_fill_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> useful_bytes_{0};
};

/// Times Recommend as one predict.* span.
class TimedRecommender : public fc::core::Recommender {
 public:
  TimedRecommender(const fc::core::Recommender* inner, SpanRecorder* recorder,
                   SpanName name)
      : inner_(inner), recorder_(recorder), name_(name) {}

  std::string_view name() const override { return inner_->name(); }
  fc::Result<fc::core::RankedTiles> Recommend(
      const fc::core::PredictionContext& ctx) const override {
    ScopedSpan span(recorder_, name_);
    return inner_->Recommend(ctx);
  }

 private:
  const fc::core::Recommender* inner_;
  SpanRecorder* recorder_;
  SpanName name_;
};

/// Times Allocate as a predict.alloc span.
class TimedAllocation : public fc::core::AllocationStrategy {
 public:
  TimedAllocation(const fc::core::AllocationStrategy* inner,
                  SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string_view name() const override { return inner_->name(); }
  fc::core::Allocation Allocate(fc::core::AnalysisPhase phase,
                                std::size_t k) const override {
    ScopedSpan span(recorder_, SpanName::kPredictAlloc);
    return inner_->Allocate(phase, k);
  }

 private:
  const fc::core::AllocationStrategy* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
