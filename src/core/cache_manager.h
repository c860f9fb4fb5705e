// CacheManager: the per-session layer of the middleware cache (paper
// section 3).
//
// Two private regions back one user session:
//  * a history LRU holding the last n requested tiles, and
//  * a prefetch region, re-filled after every request from the prediction
//    engine's ranked list (each recommendation model's share of the region
//    is the allocation strategy's decision, applied upstream by the engine
//    when it merges the two ranked lists).
//
// Optionally the manager sits on top of a process-wide SharedTileCache: a
// request missing both private regions probes the shared cache before the
// backing store, and every tile fetched (on demand or by prefetch) is
// published there for other sessions.
//
// Thread-safety: the session thread calls Request, Prefetch and
// BeginPrefetch; in the scheduler-fed serving stack, scheduler workers call
// AcceptPrefetched concurrently with them. Region state is mutex-guarded;
// backing-store fetches happen outside the lock so a slow DBMS query never
// blocks a delivery. Stats are atomics.

#ifndef FORECACHE_CORE_CACHE_MANAGER_H_
#define FORECACHE_CORE_CACHE_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "core/tile_cache.h"
#include "storage/tile_store.h"

namespace fc::core {

struct CacheManagerOptions {
  /// Byte budget of the last-n-requests region. To size for n nominal tiles
  /// use n * tile_width * tile_height * num_attrs * sizeof(double).
  std::size_t history_bytes = 256 * 1024;
  /// Byte budget of the prefetch region (bounds how much of the ranked
  /// prediction list is materialized).
  std::size_t prefetch_bytes = 256 * 1024;
  /// Identity stamped on every shared-cache access this manager makes, so
  /// admission control and per-session quotas can attribute the traffic.
  /// 0 = anonymous (quota-exempt); the SessionManager assigns real ids.
  std::uint64_t session_id = 0;
};

/// Outcome of serving one tile request.
struct FetchOutcome {
  tiles::TilePtr tile;
  bool cache_hit = false;   ///< Served from middleware memory (any region).
  bool shared_hit = false;  ///< The hit came from the shared cache, not a
                            ///< private region (always false without one).
};

class CacheManager {
 public:
  /// `store` (and `shared`, when given) must outlive the manager. With a
  /// null `shared` the manager behaves exactly like the original
  /// private-regions-only design.
  CacheManager(storage::TileStore* store, CacheManagerOptions options = {},
               SharedTileCache* shared = nullptr);

  /// Serves a client tile request: private regions, then the shared cache,
  /// then the backing store. The returned tile is retained in the history
  /// region (and published to the shared cache on a store fetch).
  Result<FetchOutcome> Request(const tiles::TileKey& key);

  /// Synchronous fill: replaces the prefetch region with `predictions`
  /// (ranked, highest priority first), fetching each tile from the shared
  /// cache or backing store until the region's byte budget is spent. Tiles
  /// already in the history region are not re-fetched (but still charge
  /// the budget). A fetch failure skips that tile (counted in
  /// prefetch_failures()) and continues down the ranked list, so one bad
  /// tile cannot starve the rest. `confidences` parallels `predictions`
  /// (the engine's per-tile confidence; missing entries read as 0): each
  /// shared-cache fill carries its confidence so a near-certain prediction
  /// takes the priority-admission path past the frequency filter.
  Status Prefetch(const std::vector<tiles::TileKey>& predictions,
                  const std::vector<double>& confidences = {});

  /// Scheduler-mode fill, step 1 (the submission API swap): instead of
  /// fetching the ranked list itself, the session plans it for the
  /// process-wide PrefetchScheduler. Clears the prefetch region, gates
  /// AcceptPrefetched on `generation` (the server's per-request counter,
  /// monotonic), and returns the ranked candidates to publish — skipping
  /// tiles the history region already holds and in-list duplicates.
  /// Thread-safe.
  std::vector<PrefetchCandidate> BeginPrefetch(
      const std::vector<tiles::TileKey>& predictions,
      const std::vector<double>& confidences, std::uint64_t generation);

  /// Scheduler-mode fill, step 2: the scheduler's delivery callback lands a
  /// completed fill here. Retained only while `generation` is still the
  /// current fill (a newer BeginPrefetch or Clear rejects stragglers — the
  /// generation-based invalidation that keeps superseded fills out of a
  /// re-planned region). Returns true when the tile was retained. Unlike
  /// the synchronous Prefetch, byte-budget overflow evicts the region's
  /// least-recently-delivered tile rather than ending the fill (deliveries
  /// arrive in queue-priority order, not submission order). Thread-safe.
  bool AcceptPrefetched(const tiles::TileKey& key, const tiles::TilePtr& tile,
                        std::uint64_t generation);

  /// Closes the scheduler-mode fill gate without touching region contents:
  /// every AcceptPrefetched delivery is rejected until the next
  /// BeginPrefetch. The server calls this when cancelling a fill, so
  /// deliveries from still-settling merged fills cannot land in a region
  /// the session has abandoned. Thread-safe.
  void AbortPrefetch();

  /// True if a private region holds the tile (no stats side effects).
  bool Cached(const tiles::TileKey& key) const;

  void Clear();

  std::uint64_t requests() const { return requests_; }
  /// Hits from any middleware memory: private regions or shared cache.
  std::uint64_t cache_hits() const { return private_hits_ + shared_hits_; }
  /// Hits from this session's own history/prefetch regions only. Unlike
  /// cache_hits(), this is deterministic for a given trace regardless of
  /// what other sessions are doing (the shared cache's contents depend on
  /// scheduling; the private regions do not).
  std::uint64_t private_hits() const { return private_hits_; }
  std::uint64_t shared_hits() const { return shared_hits_; }
  /// Ranked-list entries dropped because their fetch failed.
  std::uint64_t prefetch_failures() const { return prefetch_failures_; }
  double HitRate() const;
  double PrivateHitRate() const;

  /// Region accessors for inspection. Not synchronized: callers must
  /// quiesce concurrent Request/Prefetch activity first (e.g. via
  /// ForeCacheServer::WaitForPrefetch).
  const LruTileCache& history_cache() const { return history_; }
  const LruTileCache& prefetch_cache() const { return prefetch_; }

 private:
  /// Fetches through the shared cache when present, else the store.
  /// `confidence` tags the shared-cache access (0 for demand traffic).
  Result<tiles::TilePtr> FetchThrough(const tiles::TileKey& key,
                                      double confidence);

  storage::TileStore* store_;
  CacheManagerOptions options_;
  SharedTileCache* shared_;

  mutable std::mutex mu_;  ///< Guards history_, prefetch_, and the fill gate.
  LruTileCache history_;
  LruTileCache prefetch_;
  /// Scheduler-mode fill gate: AcceptPrefetched only lands deliveries
  /// carrying the generation of the latest BeginPrefetch. Closed by Clear.
  std::uint64_t fill_generation_ = 0;
  bool fill_open_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> private_hits_{0};
  std::atomic<std::uint64_t> shared_hits_{0};
  std::atomic<std::uint64_t> prefetch_failures_{0};
};

}  // namespace fc::core

#endif  // FORECACHE_CORE_CACHE_MANAGER_H_
