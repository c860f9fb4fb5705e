// ForeCacheServer: the middleware request loop (paper section 3).
//
// Per request: (1) serve the tile — from the middleware cache (fast) or the
// backing DBMS (slow, charged to the virtual clock); (2) feed the request to
// the prediction engine; (3) refill the prefetch region with the engine's
// ranked list. Prefetching happens during the user's think time, so only
// step (1) counts toward response latency.
//
// Step (3) takes one of two paths. Without a PrefetchScheduler the server
// fills its own region synchronously, on the session thread, before
// HandleRequest returns (the paper's single-user design). With one attached
// (the multi-session configuration), the server does not fill its region
// at all: it publishes the ranked predictions — tagged with the request
// generation — into the process-wide queue, which merges them with every
// other session's, fetches each tile once, and delivers completed fills
// back through AcceptPrefetched. A newer request supersedes the previous
// publication (generation check), mirroring the paper's "re-filled after
// every request" semantics without double work.
//
// Thread-safety: one server backs one session. HandleRequest and the
// accessors must be called from that session's thread; scheduler
// deliveries arrive on worker threads and only touch the (internally
// synchronized) CacheManager and PushStream.

#ifndef FORECACHE_SERVER_FORECACHE_SERVER_H_
#define FORECACHE_SERVER_FORECACHE_SERVER_H_

#include <memory>
#include <vector>

#include "array/cost_model.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/trace.h"
#include "core/cache_manager.h"
#include "core/prediction_engine.h"
#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "core/stream_scheduler.h"
#include "server/push_stream.h"
#include "server/think_time.h"
#include "storage/tile_store.h"

namespace fc::server {

struct ServerOptions {
  core::CacheManagerOptions cache;
  /// Middleware service time on a cache hit (paper: 19.5 ms measured).
  double cache_hit_service_ms = 19.5;
  /// When false, the prediction engine is bypassed entirely — the
  /// "traditional system" baseline of section 5.5.
  bool prefetching_enabled = true;
  /// Think-time estimation feeding the scheduler's deadline mode: the
  /// server observes this session's inter-request gaps and publishes the
  /// estimate with every prediction (core/prefetch_scheduler.h). The
  /// estimate rides along at negligible cost even when the scheduler
  /// ignores it (deadline_aware off).
  ThinkTimeOptions think_time;
  /// Per-session push budget for the continuous streaming path (consulted
  /// only when a StreamScheduler is wired — see the constructor).
  PushStreamOptions push_stream;
  /// Real-time deployment mode: a monotonic wall clock (common/clock.h)
  /// the server reads instead of the virtual SimClock. When set, the
  /// SimClock constructor argument may be null — request latencies and
  /// think-time gaps are measured as NowMillis() deltas on this clock, and
  /// no service time is ever charged (real time passes on its own). When
  /// null (the default), the server runs in simulation mode and the
  /// SimClock is required. Must outlive the server.
  const Clock* wall_clock = nullptr;

  /// Telemetry (common/metrics.h, common/trace.h), both optional and both
  /// off by default at zero hot-path cost. With `metrics`, every request
  /// records fc.request.latency_us / fc.requests.total / fc.requests.
  /// cache_hits (instruments resolved once at construction). With
  /// `trace`, each request starts a trace and the sampled ones record
  /// request.handle / cache.lookup / prefetch.publish spans, with the
  /// trace id propagated into the scheduler and stream paths. Both must
  /// outlive the server. SessionManagerOptions wires these process-wide.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSink* trace = nullptr;
};

/// One served request, with its simulated response latency.
struct ServedRequest {
  tiles::TilePtr tile;
  bool cache_hit = false;
  double latency_ms = 0.0;
  core::EnginePrediction prediction;  ///< Empty when prefetching is disabled.
};

class ForeCacheServer {
 public:
  /// `store`, `engine`, and `clock` must outlive the server. `engine` may be
  /// null only when options.prefetching_enabled is false; `clock` may be
  /// null only when options.wall_clock supplies the time base instead.
  ///
  /// `shared` (optional) layers the session cache over a process-wide tile
  /// cache; `scheduler` (optional) routes predictions through the
  /// cross-session prefetch queue instead of the synchronous fill (it
  /// registers this session under options.cache.session_id);
  /// `stream_scheduler` (optional, requires `scheduler`) routes completed
  /// fills through a per-session PushStream — progressive chunks under
  /// options.push_stream's byte budget — instead of landing them in the
  /// region whole. All must outlive the server.
  ForeCacheServer(storage::TileStore* store, core::PredictionEngine* engine,
                  SimClock* clock, ServerOptions options = {},
                  core::SharedTileCache* shared = nullptr,
                  core::PrefetchScheduler* scheduler = nullptr,
                  core::StreamScheduler* stream_scheduler = nullptr);

  /// Cancels this session's scheduler work and waits out its in-flight
  /// deliveries before destruction.
  ~ForeCacheServer();

  ForeCacheServer(const ForeCacheServer&) = delete;
  ForeCacheServer& operator=(const ForeCacheServer&) = delete;

  /// Serves one client request end to end. With a scheduler, returns as
  /// soon as the tile is served and the predictions published; the
  /// scheduler fills the region in the background.
  Result<ServedRequest> HandleRequest(const core::TileRequest& request);

  /// Blocks until none of this session's scheduler fills is pending or in
  /// flight and, with streaming, until every chunk the byte budgets allow
  /// has been pushed to this session. Replay harnesses call this between
  /// moves to model think time fully covering the fill (and to make
  /// replays deterministic). No-op for synchronous servers.
  void WaitForPrefetch();

  /// Resets per-session state (cache + engine history) for a new session.
  void StartSession();

  /// True when a PrefetchScheduler fills the region (see the constructor).
  bool async() const { return scheduler_ != nullptr; }

  const core::CacheManager& cache_manager() const { return cache_manager_; }
  core::CacheManager* mutable_cache_manager() { return &cache_manager_; }

  /// Geometry of the dataset being served.
  const tiles::PyramidSpec& spec() const { return store_->spec(); }

  /// Latencies of every request served since construction, in order.
  const std::vector<double>& latency_log() const { return latency_log_; }
  double AverageLatencyMs() const;

  /// This session's think-time tracker (reset by StartSession).
  const ThinkTimeEstimator& think_time() const { return think_time_; }

  /// This session's push stream; null unless streaming is wired.
  const PushStream* push_stream() const { return stream_.get(); }

 private:
  /// Retires this session's scheduler work and waits out its in-flight
  /// deliveries (session reset/teardown: the region is about to be
  /// discarded anyway). No-op for synchronous servers.
  void CancelAndWaitForPrefetch();

  storage::TileStore* store_;
  core::PredictionEngine* engine_;
  SimClock* clock_;  ///< Virtual time base; null in wall-clock mode.
  /// The time base actually read for latency and think-time measurement:
  /// options_.wall_clock when set, else clock_. Never null.
  const Clock* time_;
  ServerOptions options_;
  core::PrefetchScheduler* scheduler_;
  core::StreamScheduler* stream_scheduler_;
  /// This session's registration with the scheduler (valid iff scheduler_).
  std::uint64_t scheduler_session_ = 0;
  /// The per-session push channel (non-null iff scheduler_ and
  /// stream_scheduler_ were both wired). Created before the scheduler
  /// registration so the delivery callback can route through it, destroyed
  /// after unregistration so late fills cannot touch a dead stream.
  std::unique_ptr<PushStream> stream_;
  core::CacheManager cache_manager_;
  std::vector<double> latency_log_;
  ThinkTimeEstimator think_time_;

  /// Telemetry instruments, resolved once at construction (null when
  /// options_.metrics is null — recording sites branch on the pointer).
  telemetry::Histogram* request_latency_us_ = nullptr;
  telemetry::Counter* requests_total_ = nullptr;
  telemetry::Counter* cache_hits_total_ = nullptr;

  /// Monotonic id of the latest scheduler publication (bumped per request
  /// and per cancel); deliveries carrying an older one are rejected.
  /// Session-thread only.
  std::uint64_t prefetch_generation_ = 0;
};

}  // namespace fc::server

#endif  // FORECACHE_SERVER_FORECACHE_SERVER_H_
