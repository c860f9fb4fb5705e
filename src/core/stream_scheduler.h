// StreamScheduler: the process-wide continuous push channel for prefetched
// tiles.
//
// The prefetch pipeline up to here is request-triggered and all-or-nothing
// per tile: a fill only helps a session once its FULL payload has crossed
// the client channel. Continuous Prefetch (Khameleon, PAPERS.md) shows the
// bigger win — treat the client-facing channel as a continuously scheduled
// resource — and HiFIVE motivates the coarse-first fidelity ladder. Fills
// completed by the PrefetchScheduler are submitted here as they land (not
// once per request), split by the progressive codec into a small coarse
// BASE chunk plus an exact REFINEMENT chunk (storage/tile_codec.h), and
// pushed to sessions under explicit byte-rate budgets:
//
//  * Utility-per-byte allocation. Every pending USABLE chunk (a tile's
//    first chunk: the base, or the whole blob in all-or-nothing mode)
//    outranks every refinement. Within the usable class a chunk's rank is
//      confidence / exact_payload_bytes
//    — the tile's end-state utility density, so the progressive schedule
//    visits tiles in exactly the order the all-or-nothing schedule would,
//    just with far fewer bytes before each tile becomes usable (the
//    conformance property the stream harness enforces). Refinements rank
//    0.25 x confidence / refinement_bytes. Ties break by submission
//    order, so pull-mode pumps are fully deterministic. This is the whole
//    push policy: deadlines and per-session fairness are fetch-side
//    concerns and live in the PrefetchScheduler alone.
//  * Byte-rate budgets on the fc::Clock abstraction. Each session has a
//    token bucket (bytes_per_ms, burst_bytes) and the scheduler has an
//    optional global egress bucket shared by all sessions — the saturated
//    resource the utility order allocates. A chunk larger than a full
//    bucket is sent when the bucket is full, driving it negative, so
//    oversized tiles stall but never deadlock. Without a clock (or with
//    rate 0) budgets are unlimited.
//  * Base-before-refinement: a refinement is ineligible until its base
//    chunk has been pushed, and dropping a base drops its refinement with
//    it.
//  * Generation supersession mirrors the PrefetchScheduler:
//    CancelStaleGenerations sheds chunks from publications the user has
//    moved past.
//
// Encode once, push many. A tile is a shared_ptr<const Tile>, so its
// content never changes; the codec work of splitting it (Encode, the
// progressive pair, and the Reassemble + Decode(base) validation with its
// all-or-nothing fallback) is done once per distinct tile object and
// memoized, keyed by the tile's address. Every later SubmitTile of the same
// object — the shared L1 hands the same TilePtr to every session — is a
// lookup plus the queueing. The memo's rules:
//
//  * Lifetime. An entry holds only a weak_ptr to its source, and a hit
//    requires the weak_ptr to lock to the submitted tile, so a freed tile
//    whose address is reused always gets a fresh split. Entries whose
//    source expired are swept lazily, whenever the memo has doubled since
//    the last sweep.
//  * Memory. A decoded payload bit-identical to the source (any lossless
//    final encoding, such as the default kRawF64) is not stored: the
//    submitted TilePtr itself is pushed. An entry then holds at most one
//    decoded coarse base, so the memo costs at most one base per live
//    source tile (plus expired entries awaiting a sweep).
//  * Chunk sizes, ranks and payload bits are exactly what a fresh split
//    yields; splits_built counts the splits computed.
//
// Thread-safety: all methods are thread-safe. One mutex guards the chunk
// list, the session registry, the buckets, and the counters; a second one
// guards only the split memo. Splits are computed outside both locks and
// sink invocations happen outside them too, pinned by per-session
// in-flight counts (a session is never erased mid-push). Waits re-look-up
// their session by id after every wake-up, never through a pointer a
// concurrent UnregisterSession may have freed. Sinks must not call back
// into the scheduler.
//
// With an Executor the scheduler pumps itself whenever work is submitted;
// with none it is in PULL MODE and the owner drives it via Pump()/Flush()
// — deterministic, used by the conformance harness and the bench.

#ifndef FORECACHE_CORE_STREAM_SCHEDULER_H_
#define FORECACHE_CORE_STREAM_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "storage/tile_codec.h"
#include "tiles/tile.h"
#include "tiles/tile_key.h"

namespace fc::core {

/// Per-session push budget: a token bucket on the scheduler's clock.
struct StreamSessionLimits {
  /// Sustained push rate. 0 = unlimited (also the behavior while no clock
  /// is wired — budgets need a time source).
  double bytes_per_ms = 0.0;
  /// Bucket capacity (also the initial balance). Chunks larger than this
  /// are sent when the bucket is full, driving it negative.
  std::size_t burst_bytes = 256 * 1024;
};

struct StreamSchedulerOptions {
  /// Time source for the budgets and the TTFU histogram; the scheduler
  /// only ever READS it. Null = unlimited budgets, and chunks carry
  /// kNoEnqueueStamp.
  const Clock* clock = nullptr;

  /// Progressive two-chunk streaming (base + refinement). Off, every tile
  /// is pushed as ONE exact chunk — the request-triggered all-or-nothing
  /// baseline the conformance property and the bench compare against.
  bool progressive = true;

  /// Final-fidelity encoding of the pushed payload (and the base fidelity
  /// via progressive_base_step).
  storage::TileCodecOptions codec;

  /// Global egress bucket shared by every session (the server's outbound
  /// channel). 0 = unlimited.
  double total_bytes_per_ms = 0.0;
  std::size_t total_burst_bytes = 1024 * 1024;

  /// Telemetry (optional, zero hot-path cost when null). With `metrics`,
  /// each first-usable push records fc.stream.ttfu_us — submit-to-push
  /// time on `clock`'s time base, the time-to-first-usable the PR 9 bench
  /// measured ad hoc. With `trace`, pushes of chunks submitted under a
  /// sampled trace record stream.push spans. Both must outlive the
  /// scheduler.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSink* trace = nullptr;
};

/// Point-in-time counters. Every enqueued chunk is either pushed or
/// dropped stale, so chunks_pushed + stale_chunks_dropped ==
/// chunks_enqueued unless a submission was rejected before enqueue; and
/// chunks_pushed == base_chunks_pushed + exact_chunks_pushed.
struct StreamSchedulerStats {
  std::uint64_t tiles_submitted = 0;
  std::uint64_t chunks_enqueued = 0;
  std::uint64_t chunks_pushed = 0;
  std::uint64_t base_chunks_pushed = 0;   ///< Coarse lossy payloads.
  std::uint64_t exact_chunks_pushed = 0;  ///< Refinements and whole blobs.
  std::uint64_t bytes_pushed = 0;
  /// Tiles whose FIRST chunk (base, or the whole blob) was pushed — the
  /// moment the tile became usable client-side.
  std::uint64_t first_usable_pushes = 0;
  /// Chunks dropped by supersession, cancellation, or shutdown, plus
  /// submissions rejected for an unknown or unregistering session.
  std::uint64_t stale_chunks_dropped = 0;
  /// Pump rounds that found queued work but pushed nothing for budget.
  std::uint64_t budget_stalls = 0;
  /// Progressive splits computed (memo misses). A tile object submitted
  /// any number of times is split once, unless its first submissions
  /// race each other.
  std::uint64_t splits_built = 0;
};

/// A queued chunk, as reported by SnapshotQueue() (push order not implied).
struct StreamChunkInfo {
  std::uint64_t session_id = 0;
  tiles::TileKey key;
  std::uint64_t generation = 0;
  bool exact = false;  ///< Refinement or whole blob (false: coarse base).
  std::size_t bytes = 0;
  double utility_per_byte = 0.0;
  /// Virtual submit time; kNoEnqueueStamp when submitted clockless.
  double enqueue_ms = -1.0;
};

/// Process-wide continuous push channel. One instance serves every session
/// of a SessionManager; server::PushStream is the per-session facade.
class StreamScheduler {
 public:
  /// Enqueue stamp of chunks submitted without a clock: a sentinel, NOT
  /// virtual time 0, so such chunks never record a TTFU sample. Same
  /// convention as PrefetchScheduler::kNoEnqueueStamp.
  static constexpr double kNoEnqueueStamp = -1.0;

  /// Receives one pushed chunk: the decoded payload at that fidelity
  /// (`exact` false = coarse base, true = exact tile) and the publish
  /// generation it was submitted under. Invoked WITHOUT the scheduler
  /// lock, possibly from an executor thread; must not call back into the
  /// scheduler.
  using ChunkSink = std::function<void(
      const tiles::TileKey& key, const tiles::TilePtr& tile, bool exact,
      std::uint64_t generation)>;

  /// `executor` null puts the scheduler in pull mode (see header notes);
  /// otherwise it must outlive the scheduler.
  explicit StreamScheduler(Executor* executor,
                           StreamSchedulerOptions options = {});

  /// Shuts down: drops all queued chunks and joins in-flight pushes
  /// (registered sessions need not be unregistered first).
  ~StreamScheduler();

  StreamScheduler(const StreamScheduler&) = delete;
  StreamScheduler& operator=(const StreamScheduler&) = delete;

  /// Registers a session. `session_id` is the caller's stable nonzero
  /// identity; 0 — or a collision — auto-assigns a fresh one. Returns the
  /// effective id, which all other per-session calls take.
  std::uint64_t RegisterSession(std::uint64_t session_id,
                                StreamSessionLimits limits, ChunkSink sink);

  /// Drops the session's queued chunks (stale), waits for its in-flight
  /// pushes to settle, and forgets it. After return its sink is never
  /// invoked again. No-op for unknown ids.
  void UnregisterSession(std::uint64_t session_id);

  /// Drops the session's queued chunks and waits for its in-flight pushes,
  /// without unregistering it (session reset / abort).
  void CancelSession(std::uint64_t session_id);

  /// Flushes, then waits until the session has no push in flight and no
  /// budget-eligible queued chunk — also when the executor self-pump, not
  /// this caller, picked the session's chunks. Budget-blocked chunks stay
  /// queued (a rate-limited stream leaves the region partially coarse
  /// until bandwidth accrues). Returns at once for unknown ids.
  void WaitForSession(std::uint64_t session_id);

  /// Drops the session's queued chunks from generations other than
  /// `live_generation` — the push-side supersession a new publication
  /// triggers. Does not wait for in-flight pushes (their receivers
  /// generation-check anyway, see CacheManager::AcceptPrefetched).
  void CancelStaleGenerations(std::uint64_t session_id,
                              std::uint64_t live_generation);

  /// Splits `tile` per the progressive codec (or encodes it whole in
  /// all-or-nothing mode) — or reuses the memoized split of this tile
  /// object — and queues the chunks for `session_id`.
  /// `confidence` feeds the utility rank. Unknown/unregistering sessions
  /// drop the submission as stale. With an executor, submission kicks the
  /// self-pump. `trace_id` (0 = unsampled) attributes the resulting chunk
  /// pushes to the publishing request's trace.
  void SubmitTile(std::uint64_t session_id, const tiles::TileKey& key,
                  const tiles::TilePtr& tile, std::uint64_t generation,
                  double confidence, std::uint64_t trace_id = 0);

  /// One bounded pump round: refills buckets from the clock, then pushes
  /// up to 64 budget-eligible chunks in class/utility order. Returns the
  /// number pushed. This is the pull-mode hook; safe to call concurrently
  /// with the self-pump.
  std::size_t Pump();

  /// Pumps until no further progress (budget-blocked or empty). Returns
  /// total chunks pushed. With rate limits and a frozen clock this returns
  /// once the buckets run dry — it never busy-waits.
  std::size_t Flush();

  /// Re-arms the self-pump if queued work exists (executor mode only; the
  /// self-pump parks when budgets run dry, and time passing does not wake
  /// it by itself).
  void Kick();

  /// Stops accepting work: drops every queued chunk and joins in-flight
  /// pushes. Idempotent; also called by the destructor.
  void Shutdown();

  /// Queued (not yet pushed) chunks.
  std::size_t queued() const;

  StreamSchedulerStats Stats() const;

  /// Consistent snapshot of the queued chunks, in submission order.
  std::vector<StreamChunkInfo> SnapshotQueue() const;

  /// Entries in the split memo, live and not yet swept.
  std::size_t memoized_splits() const;

 private:
  /// One tile object's split: chunk sizes and decoded payloads. A null
  /// payload stands for the source tile itself (bit-identical decode).
  struct Split {
    std::weak_ptr<const tiles::Tile> source;
    std::size_t full_bytes = 0;  ///< All-or-nothing blob size (the rank).
    std::size_t usable_bytes = 0;
    std::size_t refine_bytes = 0;
    bool usable_is_exact = true;
    tiles::TilePtr usable_payload;
    tiles::TilePtr exact_payload;  ///< Null also when usable_is_exact.
  };

  /// Runs the codec: encode, split, validate (see the header notes).
  Split BuildSplit(const tiles::Tile& tile) const;

  /// The split of `tile` with both payloads resolved (non-null where the
  /// chunk exists), from the memo or freshly built. `*built` reports a
  /// memo miss.
  Split SplitFor(const tiles::TilePtr& tile, bool* built);

  struct ChunkJob {
    std::uint64_t session_id = 0;
    tiles::TileKey key;
    std::uint64_t generation = 0;
    bool exact = false;
    /// Usable chunks (first chunk of a tile) form class 0 and always
    /// outrank class-1 refinements.
    bool usable = false;
    /// Refinements start gated and become eligible when their base chunk
    /// is picked for push.
    bool awaiting_base = false;
    std::size_t bytes = 0;
    double utility_per_byte = 0.0;
    double enqueue_ms = kNoEnqueueStamp;
    std::uint64_t seq = 0;  ///< Submission order; deterministic tie-break.
    std::uint64_t trace_id = 0;  ///< Publishing request's trace (0 = off).
    tiles::TilePtr payload;  ///< Decoded at this chunk's fidelity.
  };

  struct SessionState {
    ChunkSink sink;
    StreamSessionLimits limits;
    /// Token bucket balance. Starts full; may go negative for chunks
    /// larger than the burst (sent at full bucket).
    double tokens = 0.0;
    /// Virtual time of the last refill; kNoEnqueueStamp before the first
    /// metered pump (no credit for time before the session's first pump).
    double last_refill_ms = kNoEnqueueStamp;
    std::size_t in_flight = 0;  ///< Pushes handed to the sink, not settled.
    bool unregistering = false;
  };

  /// A chunk picked for push this round, pinned for delivery outside the
  /// lock.
  struct ReadyChunk {
    SessionState* session = nullptr;
    tiles::TileKey key;
    tiles::TilePtr payload;
    bool exact = false;
    std::uint64_t generation = 0;
    std::uint64_t session_id = 0;  ///< For trace attribution.
    std::uint64_t trace_id = 0;    ///< 0 = no stream.push span.
    double push_start_ms = 0.0;    ///< Span start (selection time).
  };

  /// Refills one session's bucket (and lazily the global bucket) from the
  /// clock. Caller holds mu_.
  void RefillBudgetsLocked(double now_ms);

  /// Whether `job` may be pushed right now (session live, base pushed,
  /// both buckets can cover it). Caller holds mu_.
  bool EligibleLocked(const ChunkJob& job, const SessionState& state) const;

  /// The best eligible chunk in class/utility/submission order, or
  /// jobs_.end(). Caller holds mu_.
  std::list<ChunkJob>::iterator SelectLocked();

  /// Removes `it` and, when it gates a refinement that can now never
  /// apply, that refinement too. `counter` classifies the drop. Caller
  /// holds mu_.
  std::list<ChunkJob>::iterator DropLocked(std::list<ChunkJob>::iterator it,
                                           std::uint64_t* counter);

  /// Arms one self-pump task if queued work exists. Caller holds mu_.
  void SpawnPumpLocked();

  /// The registered state of `session_id` (unregistering or not), or
  /// null. Waits call this after every wake-up. Caller holds mu_.
  SessionState* FindLocked(std::uint64_t session_id) const;

  /// True when `session_id` has no push in flight (or is gone). Caller
  /// holds mu_.
  bool PushesSettledLocked(std::uint64_t session_id) const;

  /// Drops every queued chunk of `session_id` as stale. Caller holds mu_.
  void DropSessionLocked(std::uint64_t session_id);

  Executor* executor_;  ///< Null in pull mode.
  StreamSchedulerOptions options_;
  storage::TileCodec codec_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Push settlement, pump exit.
  std::list<ChunkJob> jobs_;    ///< Submission order.
  std::unordered_map<std::uint64_t, std::unique_ptr<SessionState>> sessions_;
  std::uint64_t next_auto_id_ = 1ull << 48;  ///< Clear of SessionManager ids.
  std::uint64_t seq_counter_ = 0;
  double total_tokens_ = 0.0;
  double total_last_refill_ms_ = kNoEnqueueStamp;
  bool pump_armed_ = false;  ///< A self-pump task is queued or running.
  std::size_t in_flight_pushes_ = 0;
  bool shutdown_ = false;
  StreamSchedulerStats stats_;

  /// Telemetry instrument, resolved once at construction (null when
  /// options_.metrics is null).
  telemetry::Histogram* ttfu_us_ = nullptr;

  /// Split memo, keyed by source tile address (see the header notes).
  /// Never held together with mu_.
  mutable std::mutex memo_mu_;
  std::unordered_map<const tiles::Tile*, Split> memo_;
  std::size_t memo_sweep_at_ = 0;  ///< Memo size that triggers a sweep.
};

/// Folds the scheduler's Stats() into `registry` as fc.stream.* counters
/// (plus a fc.stream.queued gauge), refreshed on every registry snapshot.
/// Returns the source id; RemoveSource it before `scheduler` dies.
std::uint64_t RegisterStreamSchedulerMetrics(
    telemetry::MetricsRegistry* registry, const StreamScheduler* scheduler);

}  // namespace fc::core

#endif  // FORECACHE_CORE_STREAM_SCHEDULER_H_
