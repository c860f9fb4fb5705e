#include "server/push_stream.h"

#include <utility>

namespace fc::server {

PushStream::PushStream(core::StreamScheduler* scheduler,
                       std::uint64_t session_id, PushStreamOptions options,
                       TileDelivery deliver)
    : scheduler_(scheduler), deliver_(std::move(deliver)) {
  stream_session_ = scheduler_->RegisterSession(
      session_id, options.limits,
      [this](const tiles::TileKey& key, const tiles::TilePtr& tile,
             bool exact, std::uint64_t generation) {
        if (exact) {
          exact_delivered_.fetch_add(1, std::memory_order_relaxed);
        } else {
          base_delivered_.fetch_add(1, std::memory_order_relaxed);
        }
        deliver_(key, tile, exact, generation);
      });
}

PushStream::~PushStream() { scheduler_->UnregisterSession(stream_session_); }

void PushStream::BeginGeneration(
    std::uint64_t generation, const std::vector<core::PrefetchCandidate>& plan,
    std::uint64_t trace_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation_ = generation;
    trace_id_ = trace_id;
    confidences_.clear();
    confidences_.reserve(plan.size());
    for (const core::PrefetchCandidate& candidate : plan) {
      confidences_[candidate.key] = candidate.confidence;
    }
  }
  scheduler_->CancelStaleGenerations(stream_session_, generation);
}

void PushStream::Accept(const tiles::TileKey& key, const tiles::TilePtr& tile,
                        std::uint64_t generation) {
  double confidence = 0.0;
  std::uint64_t trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (generation != generation_) {
      superseded_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto it = confidences_.find(key);
    if (it != confidences_.end()) confidence = it->second;
    trace_id = trace_id_;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  scheduler_->SubmitTile(stream_session_, key, tile, generation, confidence,
                         trace_id);
}

void PushStream::Cancel() { scheduler_->CancelSession(stream_session_); }

PushStream::Counters PushStream::counters() const {
  Counters out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.superseded_drops = superseded_drops_.load(std::memory_order_relaxed);
  out.base_delivered = base_delivered_.load(std::memory_order_relaxed);
  out.exact_delivered = exact_delivered_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace fc::server
