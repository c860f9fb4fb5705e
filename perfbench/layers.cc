#include "layers.h"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);

/// The calling thread's state, per recorder (one recorder per process).
thread_local void* tls_owner = nullptr;
thread_local void* tls_state = nullptr;

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kServerRequest: return "server.request";
    case SpanName::kServerSettle: return "server.settle";
    case SpanName::kPredictAb: return "predict.ab";
    case SpanName::kPredictSb: return "predict.sb";
    case SpanName::kPredictAlloc: return "predict.alloc";
    case SpanName::kStorageFetchDemand: return "storage.fetch.demand";
    case SpanName::kStorageFetchFill: return "storage.fetch.fill";
    case SpanName::kStorageBatchDemand: return "storage.batch.demand";
    case SpanName::kStorageBatchFill: return "storage.batch.fill";
    case SpanName::kCount: break;
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(std::size_t max_records_per_thread)
    : max_records_per_thread_(max_records_per_thread),
      epoch_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

SpanRecorder::ThreadState* SpanRecorder::Local() {
  if (tls_owner != this) {
    auto state = std::make_unique<ThreadState>();
    state->records.reserve(4096);
    std::lock_guard<std::mutex> lock(mu_);
    state->index = threads_.size() + 1;
    tls_state = state.get();
    tls_owner = this;
    threads_.push_back(std::move(state));
  }
  return static_cast<ThreadState*>(tls_state);
}

void SpanRecorder::MarkClientThread() { Local()->client = true; }

bool SpanRecorder::OnClientThread() { return Local()->client; }

void SpanRecorder::BeginRequest() {
  Local()->request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::array<SpanTotals, kNames> SpanRecorder::Totals() const {
  std::array<SpanTotals, kNames> totals{};
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : threads_) {
    for (std::size_t i = 0; i < kNames; ++i) {
      totals[i].calls += state->calls[i].load(std::memory_order_relaxed);
      totals[i].total_ns += state->total_ns[i].load(std::memory_order_relaxed);
      totals[i].self_ns += state->self_ns[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

std::uint64_t SpanRecorder::recorded_spans() const {
  std::uint64_t n = 0;
  for (const auto& totals : Totals()) n += totals.calls;
  return n;
}

std::uint64_t SpanRecorder::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& state : threads_) n += state->dropped.load();
  return n;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : threads_) {
    for (const Record& r : state->records) {
      out << state->index << '\t' << r.id << '\t' << r.parent << '\t'
          << r.request_id << '\t' << SpanNameString(r.name) << '\t'
          << r.start_ns << '\t' << r.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, SpanName name)
    : recorder_(recorder), name_(name) {
  if (recorder_ == nullptr) return;
  state_ = recorder_->Local();
  frame_.parent = state_->top;
  frame_.id = (state_->index << 40) | ++state_->next_seq;
  frame_.child_ns = 0;
  state_->top = &frame_;
  frame_.start_ns = recorder_->NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  const std::int64_t end_ns = recorder_->NowNs();
  const std::int64_t duration = end_ns - frame_.start_ns;
  state_->top = frame_.parent;
  if (frame_.parent != nullptr) frame_.parent->child_ns += duration;
  if (!recorder_->recording_.load(std::memory_order_acquire)) return;
  const auto i = static_cast<std::size_t>(name_);
  state_->calls[i].fetch_add(1, std::memory_order_relaxed);
  state_->total_ns[i].fetch_add(static_cast<std::uint64_t>(duration),
                                std::memory_order_relaxed);
  state_->self_ns[i].fetch_add(
      static_cast<std::uint64_t>(duration - frame_.child_ns),
      std::memory_order_relaxed);
  if (state_->records.size() < recorder_->max_records_per_thread_) {
    state_->records.push_back(
        {frame_.id, frame_.parent == nullptr ? 0 : frame_.parent->id,
         state_->client ? state_->request_id : 0, frame_.start_ns, end_ns,
         name_});
  } else {
    state_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

TimedTileStore::TimedTileStore(
    fc::storage::TileStore* inner, SpanRecorder* recorder,
    const std::unordered_map<fc::tiles::TileKey, std::uint64_t,
                             fc::tiles::TileKeyHash>* blob_bytes)
    : inner_(inner), recorder_(recorder), blob_bytes_(blob_bytes) {}

void TimedTileStore::Account(const fc::tiles::TileKey& key,
                             const fc::Result<fc::tiles::TilePtr>& result) {
  if (!result.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (blob_bytes_ == nullptr) return;
  auto it = blob_bytes_->find(key);
  if (it != blob_bytes_->end()) {
    useful_bytes_.fetch_add(it->second, std::memory_order_relaxed);
  }
}

fc::Result<fc::tiles::TilePtr> TimedTileStore::Fetch(
    const fc::tiles::TileKey& key) {
  const bool client = recorder_->OnClientThread();
  fc::Result<fc::tiles::TilePtr> result = fc::Status::Internal("unset");
  {
    ScopedSpan span(recorder_, client ? SpanName::kStorageFetchDemand
                                      : SpanName::kStorageFetchFill);
    result = inner_->Fetch(key);
  }
  Account(key, result);
  return result;
}

std::vector<fc::Result<fc::tiles::TilePtr>> TimedTileStore::FetchBatch(
    const std::vector<fc::tiles::TileKey>& keys) {
  const bool client = recorder_->OnClientThread();
  std::vector<fc::Result<fc::tiles::TilePtr>> results;
  {
    ScopedSpan span(recorder_, client ? SpanName::kStorageBatchDemand
                                      : SpanName::kStorageBatchFill);
    results = inner_->FetchBatch(keys);
  }
  (client ? batch_tiles_demand_ : batch_tiles_fill_)
      .fetch_add(keys.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < results.size() && i < keys.size(); ++i) {
    Account(keys[i], results[i]);
  }
  return results;
}

}  // namespace perfbench
