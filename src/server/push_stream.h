// PushStream: one session's continuous push channel over the process-wide
// StreamScheduler (core/stream_scheduler.h).
//
// The ForeCacheServer owns one PushStream per session when streaming is
// enabled. The prefetch scheduler's completed fills are handed to Accept
// instead of landing in the prefetch region directly; the stream submits
// them to the StreamScheduler (tagged with the publish confidence), which
// splits them into progressive chunks and pushes each chunk — under this
// session's byte-rate budget — through the delivery callback back into the
// region: a coarse usable tile first, the exact payload when its
// refinement arrives.
//
// BeginGeneration is the supersession point: a new request re-plans the
// region, so queued chunks from older generations are shed immediately
// (the fetch-side scheduler sheds its queue the same way).
//
// Thread-safety: Accept and the scheduler's sink run on executor threads;
// BeginGeneration/Cancel run on the session's thread. One mutex guards the
// confidence plan; delivery counters are atomics so the sink never takes a
// lock the scheduler's pump could contend on.

#ifndef FORECACHE_SERVER_PUSH_STREAM_H_
#define FORECACHE_SERVER_PUSH_STREAM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/prefetch_scheduler.h"
#include "core/stream_scheduler.h"
#include "tiles/tile.h"
#include "tiles/tile_key.h"

namespace fc::server {

struct PushStreamOptions {
  /// This session's push budget (token bucket on the scheduler's clock).
  core::StreamSessionLimits limits;
};

class PushStream {
 public:
  /// Receives each pushed chunk's decoded payload (`exact` false = coarse
  /// base fidelity). Invoked from the scheduler's pump, possibly on an
  /// executor thread; must be internally synchronized and must not call
  /// back into the stream or the scheduler.
  using TileDelivery = std::function<void(
      const tiles::TileKey& key, const tiles::TilePtr& tile, bool exact,
      std::uint64_t generation)>;

  /// Registers with `scheduler` under `session_id` (the SessionManager's
  /// numeric session id; collisions auto-assign). `scheduler` must outlive
  /// the stream.
  PushStream(core::StreamScheduler* scheduler, std::uint64_t session_id,
             PushStreamOptions options, TileDelivery deliver);

  /// Unregisters: drops queued chunks and waits out in-flight pushes, so
  /// `deliver` is never invoked after destruction.
  ~PushStream();

  PushStream(const PushStream&) = delete;
  PushStream& operator=(const PushStream&) = delete;

  /// Starts streaming for publish `generation`: records the plan's per-key
  /// confidences (the utility input) and sheds queued chunks from older
  /// generations.
  /// `trace_id` (0 = unsampled) tags this generation's chunk submissions so
  /// the stream scheduler records stream.push spans for sampled requests.
  void BeginGeneration(std::uint64_t generation,
                       const std::vector<core::PrefetchCandidate>& plan,
                       std::uint64_t trace_id = 0);

  /// Submits one completed fill for streaming. Fills from generations
  /// other than the current one are dropped (counted) — the region they
  /// were planned for is gone.
  void Accept(const tiles::TileKey& key, const tiles::TilePtr& tile,
              std::uint64_t generation);

  /// Drops this session's queued chunks and waits out its in-flight
  /// pushes (session reset / abort).
  void Cancel();

  /// This stream's registration with the scheduler.
  std::uint64_t stream_session() const { return stream_session_; }

  struct Counters {
    std::uint64_t accepted = 0;         ///< Fills submitted for streaming.
    std::uint64_t superseded_drops = 0; ///< Fills from stale generations.
    std::uint64_t base_delivered = 0;   ///< Coarse chunks delivered.
    std::uint64_t exact_delivered = 0;  ///< Exact payloads delivered.
  };
  Counters counters() const;

 private:
  core::StreamScheduler* scheduler_;
  std::uint64_t stream_session_ = 0;
  TileDelivery deliver_;

  mutable std::mutex mu_;  ///< Guards the plan below.
  std::uint64_t generation_ = 0;
  std::uint64_t trace_id_ = 0;
  std::unordered_map<tiles::TileKey, double, tiles::TileKeyHash> confidences_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> superseded_drops_{0};
  std::atomic<std::uint64_t> base_delivered_{0};
  std::atomic<std::uint64_t> exact_delivered_{0};
};

}  // namespace fc::server

#endif  // FORECACHE_SERVER_PUSH_STREAM_H_
