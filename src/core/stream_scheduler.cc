#include "core/stream_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace fc::core {

namespace {

/// Class-then-utility-then-submission order: every usable chunk outranks
/// every refinement; within a class higher utility-per-byte wins; ties go
/// to the earlier submission (deterministic pull-mode pumps).
bool BetterJob(bool a_usable, double a_util, std::uint64_t a_seq,
               bool b_usable, double b_util, std::uint64_t b_seq) {
  if (a_usable != b_usable) return a_usable;
  if (a_util != b_util) return a_util > b_util;
  return a_seq < b_seq;
}

/// The split memo is first swept once it holds this many entries.
constexpr std::size_t kMinMemoSweep = 64;

/// Rank weights of the two chunk classes. Each scales a whole class
/// uniformly and class decides first, so they fix the reported
/// utility_per_byte values, never the push order.
constexpr double kUsableUtilityWeight = 1.0;
constexpr double kRefineUtilityWeight = 0.25;

/// Chunks pushed per Pump() round at most (bounds sink work per call).
constexpr std::size_t kMaxPumpChunks = 64;

/// Same key, shape, attributes and cell bits.
bool BitIdentical(const tiles::Tile& a, const tiles::Tile& b) {
  if (!(a.key() == b.key()) || a.width() != b.width() ||
      a.height() != b.height() || a.attr_names() != b.attr_names()) {
    return false;
  }
  for (std::size_t attr = 0; attr < a.num_attrs(); ++attr) {
    const std::vector<double>& x = a.AttrData(attr);
    const std::vector<double>& y = b.AttrData(attr);
    if (x.size() != y.size() ||
        (!x.empty() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StreamScheduler::StreamScheduler(Executor* executor,
                                 StreamSchedulerOptions options)
    : executor_(executor), options_(options), codec_(options.codec) {
  total_tokens_ = static_cast<double>(options_.total_burst_bytes);
  memo_sweep_at_ = kMinMemoSweep;
  if (options_.metrics != nullptr) {
    ttfu_us_ = options_.metrics->GetHistogram("fc.stream.ttfu_us");
  }
}

StreamScheduler::~StreamScheduler() { Shutdown(); }

std::uint64_t StreamScheduler::RegisterSession(std::uint64_t session_id,
                                               StreamSessionLimits limits,
                                               ChunkSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session_id == 0 || sessions_.count(session_id) > 0) {
    session_id = next_auto_id_++;
  }
  auto state = std::make_unique<SessionState>();
  state->sink = std::move(sink);
  state->limits = limits;
  state->tokens = static_cast<double>(limits.burst_bytes);
  sessions_[session_id] = std::move(state);
  return session_id;
}

StreamScheduler::SessionState* StreamScheduler::FindLocked(
    std::uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool StreamScheduler::PushesSettledLocked(std::uint64_t session_id) const {
  const SessionState* state = FindLocked(session_id);
  return state == nullptr || state->in_flight == 0;
}

void StreamScheduler::DropSessionLocked(std::uint64_t session_id) {
  for (auto job = jobs_.begin(); job != jobs_.end();) {
    if (job->session_id == session_id) {
      job = DropLocked(job, &stats_.stale_chunks_dropped);
    } else {
      ++job;
    }
  }
}

void StreamScheduler::UnregisterSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  SessionState* state = FindLocked(session_id);
  if (state == nullptr) return;
  state->unregistering = true;
  DropSessionLocked(session_id);
  // The predicate re-looks-up the id: a concurrent UnregisterSession of the
  // same id may erase the state while this call waits.
  cv_.wait(lock, [&] { return PushesSettledLocked(session_id); });
  // Erase only a state that is being unregistered: if a concurrent call
  // already erased ours, the id may since belong to a fresh registration.
  auto it = sessions_.find(session_id);
  if (it != sessions_.end() && it->second->unregistering) sessions_.erase(it);
}

void StreamScheduler::CancelSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (FindLocked(session_id) == nullptr) return;
  DropSessionLocked(session_id);
  cv_.wait(lock, [&] { return PushesSettledLocked(session_id); });
}

void StreamScheduler::WaitForSession(std::uint64_t session_id) {
  for (;;) {
    Flush();
    std::unique_lock<std::mutex> lock(mu_);
    // The self-pump may hold chunks of this session that Flush() could not
    // see; wait until they have landed.
    cv_.wait(lock, [&] { return PushesSettledLocked(session_id); });
    const SessionState* state = FindLocked(session_id);
    if (state == nullptr) return;
    // A base landing unlocks its refinement: go round again while any of
    // the session's queued chunks is eligible now.
    const bool eligible =
        std::any_of(jobs_.begin(), jobs_.end(), [&](const ChunkJob& job) {
          return job.session_id == session_id && EligibleLocked(job, *state);
        });
    if (!eligible) return;
  }
}

void StreamScheduler::CancelStaleGenerations(std::uint64_t session_id,
                                             std::uint64_t live_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto job = jobs_.begin(); job != jobs_.end();) {
    if (job->session_id == session_id && job->generation != live_generation) {
      job = DropLocked(job, &stats_.stale_chunks_dropped);
    } else {
      ++job;
    }
  }
}

void StreamScheduler::SubmitTile(std::uint64_t session_id,
                                 const tiles::TileKey& key,
                                 const tiles::TilePtr& tile,
                                 std::uint64_t generation, double confidence,
                                 std::uint64_t trace_id) {
  if (tile == nullptr) return;

  // Split before the lock: on a memo miss this is the CPU-heavy part.
  // The usable chunk's rank divides by the ALL-OR-NOTHING payload size in
  // both modes, so the progressive schedule visits tiles in exactly the
  // order the all-or-nothing one would (see header notes).
  bool built = false;
  const Split split = SplitFor(tile, &built);
  const double usable_rank = kUsableUtilityWeight *
                             std::max(confidence, 0.0) /
                             static_cast<double>(split.full_bytes);

  std::lock_guard<std::mutex> lock(mu_);
  if (built) ++stats_.splits_built;
  SessionState* state = FindLocked(session_id);
  if (shutdown_ || state == nullptr || state->unregistering) {
    stats_.stale_chunks_dropped += split.usable_is_exact ? 1 : 2;
    return;
  }
  const double now = options_.clock != nullptr ? options_.clock->NowMillis()
                                               : kNoEnqueueStamp;
  ++stats_.tiles_submitted;

  ChunkJob base;
  base.session_id = session_id;
  base.key = key;
  base.generation = generation;
  base.exact = split.usable_is_exact;
  base.usable = true;
  base.bytes = split.usable_bytes;
  base.utility_per_byte = usable_rank;
  base.enqueue_ms = now;
  base.seq = ++seq_counter_;
  base.trace_id = trace_id;
  base.payload = split.usable_payload;
  jobs_.push_back(std::move(base));
  ++stats_.chunks_enqueued;

  if (!split.usable_is_exact) {
    ChunkJob refine;
    refine.session_id = session_id;
    refine.key = key;
    refine.generation = generation;
    refine.exact = true;
    refine.usable = false;
    refine.awaiting_base = true;
    refine.bytes = split.refine_bytes;
    refine.utility_per_byte = kRefineUtilityWeight *
                              std::max(confidence, 0.0) /
                              static_cast<double>(split.refine_bytes);
    refine.enqueue_ms = now;
    refine.seq = ++seq_counter_;
    refine.trace_id = trace_id;
    refine.payload = split.exact_payload;
    jobs_.push_back(std::move(refine));
    ++stats_.chunks_enqueued;
  }
  SpawnPumpLocked();
}

StreamScheduler::Split StreamScheduler::BuildSplit(
    const tiles::Tile& tile) const {
  Split split;
  const std::string full = codec_.Encode(tile);
  split.full_bytes = full.size();
  if (options_.progressive) {
    storage::ProgressiveEncoding prog = codec_.EncodeProgressive(tile);
    auto reassembled = storage::TileCodec::Reassemble(prog.base,
                                                      prog.refinement);
    auto base_only = storage::TileCodec::Decode(prog.base);
    if (reassembled.ok() && base_only.ok()) {
      split.usable_bytes = prog.base.size();
      split.refine_bytes = prog.refinement.size();
      split.usable_is_exact = prog.refinement.empty();
      // The exact payload is kept only when it differs from the source.
      tiles::TilePtr exact;
      if (!BitIdentical(*reassembled, tile)) {
        exact = std::make_shared<const tiles::Tile>(
            std::move(reassembled).value());
      }
      if (split.usable_is_exact) {
        split.usable_payload = std::move(exact);
      } else {
        split.usable_payload = std::make_shared<const tiles::Tile>(
            std::move(base_only).value());
        split.exact_payload = std::move(exact);
      }
      return split;
    }
  }
  // All-or-nothing mode — or a defensive fallback if the progressive pair
  // failed to validate: one exact chunk carrying what a client decodes
  // from the full blob (the source itself if that fails to decode).
  auto decoded = storage::TileCodec::Decode(full);
  split.usable_bytes = full.size();
  if (decoded.ok() && !BitIdentical(*decoded, tile)) {
    split.usable_payload =
        std::make_shared<const tiles::Tile>(std::move(decoded).value());
  }
  return split;
}

StreamScheduler::Split StreamScheduler::SplitFor(const tiles::TilePtr& tile,
                                                 bool* built) {
  Split split;
  *built = true;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(tile.get());
    // The address alone proves nothing: a freed tile's address may be
    // reused, and then the old entry's source has expired.
    if (it != memo_.end() && it->second.source.lock() == tile) {
      split = it->second;
      *built = false;
    }
  }
  if (*built) {
    split = BuildSplit(*tile);
    split.source = tile;
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (memo_.size() >= memo_sweep_at_) {
      for (auto it = memo_.begin(); it != memo_.end();) {
        it = it->second.source.expired() ? memo_.erase(it) : std::next(it);
      }
      memo_sweep_at_ = std::max(kMinMemoSweep, 2 * memo_.size());
    }
    memo_.insert_or_assign(tile.get(), split);
  }
  if (split.usable_payload == nullptr) split.usable_payload = tile;
  if (!split.usable_is_exact && split.exact_payload == nullptr) {
    split.exact_payload = tile;
  }
  return split;
}

void StreamScheduler::RefillBudgetsLocked(double now_ms) {
  if (options_.total_bytes_per_ms > 0.0) {
    if (total_last_refill_ms_ < 0.0) total_last_refill_ms_ = now_ms;
    double earned =
        (now_ms - total_last_refill_ms_) * options_.total_bytes_per_ms;
    if (earned > 0.0) {
      total_tokens_ =
          std::min(static_cast<double>(options_.total_burst_bytes),
                   total_tokens_ + earned);
    }
    total_last_refill_ms_ = now_ms;
  }
  for (auto& [id, state] : sessions_) {
    if (!(state->limits.bytes_per_ms > 0.0)) continue;
    if (state->last_refill_ms < 0.0) state->last_refill_ms = now_ms;
    double earned = (now_ms - state->last_refill_ms) * state->limits.bytes_per_ms;
    if (earned > 0.0) {
      state->tokens = std::min(static_cast<double>(state->limits.burst_bytes),
                               state->tokens + earned);
    }
    state->last_refill_ms = now_ms;
  }
}

bool StreamScheduler::EligibleLocked(const ChunkJob& job,
                                     const SessionState& state) const {
  if (state.unregistering || job.awaiting_base) return false;
  if (options_.clock == nullptr) return true;  // budgets need a time source
  const double bytes = static_cast<double>(job.bytes);
  if (state.limits.bytes_per_ms > 0.0) {
    const double burst = static_cast<double>(state.limits.burst_bytes);
    // An oversized chunk (bytes > burst) goes out at a full bucket,
    // driving the balance negative — it stalls but never deadlocks.
    if (state.tokens < bytes && !(bytes > burst && state.tokens >= burst)) {
      return false;
    }
  }
  if (options_.total_bytes_per_ms > 0.0) {
    const double burst = static_cast<double>(options_.total_burst_bytes);
    if (total_tokens_ < bytes && !(bytes > burst && total_tokens_ >= burst)) {
      return false;
    }
  }
  return true;
}

std::list<StreamScheduler::ChunkJob>::iterator
StreamScheduler::SelectLocked() {
  auto best = jobs_.end();
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    auto session = sessions_.find(it->session_id);
    if (session == sessions_.end() ||
        !EligibleLocked(*it, *session->second)) {
      continue;
    }
    if (best == jobs_.end() ||
        BetterJob(it->usable, it->utility_per_byte, it->seq, best->usable,
                  best->utility_per_byte, best->seq)) {
      best = it;
    }
  }
  return best;
}

std::list<StreamScheduler::ChunkJob>::iterator StreamScheduler::DropLocked(
    std::list<ChunkJob>::iterator it, std::uint64_t* counter) {
  // A dropped base strands its gated refinement — a refinement can never
  // apply to a base the client did not receive — so the pair goes
  // together.
  if (it->usable && !it->exact) {
    for (auto other = jobs_.begin(); other != jobs_.end();) {
      if (other != it && other->awaiting_base &&
          other->session_id == it->session_id && other->key == it->key &&
          other->generation == it->generation) {
        other = jobs_.erase(other);
        ++*counter;
      } else {
        ++other;
      }
    }
  }
  ++*counter;
  return jobs_.erase(it);
}

std::size_t StreamScheduler::Pump() {
  std::vector<ReadyChunk> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return 0;
    const double now = options_.clock != nullptr
                           ? options_.clock->NowMillis()
                           : kNoEnqueueStamp;
    if (options_.clock != nullptr) RefillBudgetsLocked(now);
    const bool had_work = !jobs_.empty();
    while (ready.size() < kMaxPumpChunks) {
      auto it = SelectLocked();
      if (it == jobs_.end()) break;
      SessionState* state = sessions_.at(it->session_id).get();
      if (options_.clock != nullptr) {
        if (state->limits.bytes_per_ms > 0.0) {
          state->tokens -= static_cast<double>(it->bytes);
        }
        if (options_.total_bytes_per_ms > 0.0) {
          total_tokens_ -= static_cast<double>(it->bytes);
        }
      }
      if (it->usable && !it->exact) {
        // The base is on its way: its refinement becomes eligible (and is
        // pushed after it — ready keeps pick order).
        for (auto& job : jobs_) {
          if (job.awaiting_base && job.session_id == it->session_id &&
              job.key == it->key && job.generation == it->generation) {
            job.awaiting_base = false;
            break;
          }
        }
      }
      ++stats_.chunks_pushed;
      stats_.bytes_pushed += it->bytes;
      if (it->exact) {
        ++stats_.exact_chunks_pushed;
      } else {
        ++stats_.base_chunks_pushed;
      }
      if (it->usable) {
        ++stats_.first_usable_pushes;
        // Submit-to-usable-push wait, on the scheduler's clock. Chunks
        // submitted clockless carry the sentinel stamp and are skipped.
        if (ttfu_us_ != nullptr && now >= 0.0 && it->enqueue_ms >= 0.0) {
          ttfu_us_->Record(static_cast<std::uint64_t>(std::llround(
              std::max(now - it->enqueue_ms, 0.0) * 1000.0)));
        }
      }
      ++state->in_flight;
      ++in_flight_pushes_;
      ReadyChunk chunk;
      chunk.session = state;
      chunk.key = it->key;
      chunk.payload = it->payload;
      chunk.exact = it->exact;
      chunk.generation = it->generation;
      chunk.session_id = it->session_id;
      chunk.trace_id = it->trace_id;
      chunk.push_start_ms =
          options_.trace != nullptr && it->trace_id != 0
              ? options_.trace->NowMillis()
              : 0.0;
      ready.push_back(std::move(chunk));
      jobs_.erase(it);
    }
    if (had_work && ready.empty() && !jobs_.empty()) ++stats_.budget_stalls;
  }

  for (const ReadyChunk& chunk : ready) {
    chunk.session->sink(chunk.key, chunk.payload, chunk.exact,
                        chunk.generation);
    if (options_.trace != nullptr && chunk.trace_id != 0) {
      // The span covers selection through the sink handing the chunk to
      // the session — the push itself, attributed to the publishing
      // request's trace.
      options_.trace->Record(telemetry::TraceEvent{
          chunk.trace_id, chunk.session_id, "stream.push",
          chunk.push_start_ms, options_.trace->NowMillis()});
    }
  }

  if (!ready.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ReadyChunk& chunk : ready) --chunk.session->in_flight;
    in_flight_pushes_ -= ready.size();
    cv_.notify_all();
  }
  return ready.size();
}

std::size_t StreamScheduler::Flush() {
  std::size_t total = 0;
  for (;;) {
    std::size_t pushed = Pump();
    if (pushed == 0) return total;
    total += pushed;
  }
}

void StreamScheduler::SpawnPumpLocked() {
  if (executor_ == nullptr || pump_armed_ || shutdown_ || jobs_.empty()) {
    return;
  }
  pump_armed_ = true;
  bool accepted = executor_->Submit([this] {
    while (Pump() > 0) {
    }
    std::lock_guard<std::mutex> lock(mu_);
    pump_armed_ = false;
    cv_.notify_all();
  });
  if (!accepted) pump_armed_ = false;
}

void StreamScheduler::Kick() {
  std::lock_guard<std::mutex> lock(mu_);
  SpawnPumpLocked();
}

void StreamScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  stats_.stale_chunks_dropped += jobs_.size();
  jobs_.clear();
  cv_.wait(lock, [&] { return in_flight_pushes_ == 0 && !pump_armed_; });
}

std::size_t StreamScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

StreamSchedulerStats StreamScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t StreamScheduler::memoized_splits() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_.size();
}

std::vector<StreamChunkInfo> StreamScheduler::SnapshotQueue() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamChunkInfo> out;
  out.reserve(jobs_.size());
  for (const ChunkJob& job : jobs_) {
    StreamChunkInfo info;
    info.session_id = job.session_id;
    info.key = job.key;
    info.generation = job.generation;
    info.exact = job.exact;
    info.bytes = job.bytes;
    info.utility_per_byte = job.utility_per_byte;
    info.enqueue_ms = job.enqueue_ms;
    out.push_back(info);
  }
  return out;
}

std::uint64_t RegisterStreamSchedulerMetrics(
    telemetry::MetricsRegistry* registry, const StreamScheduler* scheduler) {
  return registry->AddSource([scheduler](telemetry::SnapshotSink& sink) {
    const StreamSchedulerStats s = scheduler->Stats();
    sink.AddCounter("fc.stream.tiles_submitted", s.tiles_submitted);
    sink.AddCounter("fc.stream.chunks_enqueued", s.chunks_enqueued);
    sink.AddCounter("fc.stream.chunks_pushed", s.chunks_pushed);
    sink.AddCounter("fc.stream.base_chunks_pushed", s.base_chunks_pushed);
    sink.AddCounter("fc.stream.exact_chunks_pushed", s.exact_chunks_pushed);
    sink.AddCounter("fc.stream.bytes_pushed", s.bytes_pushed);
    sink.AddCounter("fc.stream.first_usable_pushes", s.first_usable_pushes);
    sink.AddCounter("fc.stream.stale_chunks_dropped", s.stale_chunks_dropped);
    sink.AddCounter("fc.stream.budget_stalls", s.budget_stalls);
    sink.AddCounter("fc.stream.splits_built", s.splits_built);
    sink.AddGauge("fc.stream.queued", static_cast<double>(scheduler->queued()));
  });
}

}  // namespace fc::core
