// The serving benchmark: drives one named workload through the public
// serving API (SessionManager, with BrowserSession::Open / ApplyMove /
// WaitForPrefetch as the client calls) for a fixed number of wall-clock
// seconds, checks every tile served against the source pyramid, audits the
// telemetry books, and prints one JSON result line.
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s>
//                   --workdir <dir> [--corrupt]
//
// The binary built with PERFBENCH_TRACE (perfbench_serve_traced) wraps the
// program's outbound interfaces in the timing decorators of layers.h and
// reports per-layer metrics instead of end-to-end ones. --corrupt routes
// the backend through a store that damages tiles, which the correctness
// check must catch (used by selftest.py).
//
// Exit code: 0 when every check passes, 1 when the run completed but a
// check failed (the result line says which counts), 2 on a usage or set-up
// error (no result line).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/cost_model.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/trace.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/move.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "server/session.h"
#include "sim/modis_dataset.h"
#include "sim/study.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"

#ifdef PERFBENCH_TRACE
#include "layers.h"
#endif

using namespace fc;

namespace {

using Steady = std::chrono::steady_clock;

/// Length of one measurement window; per-window figures are reduced to
/// their median across the run.
constexpr double kWindowSeconds = 1.0;

const Steady::time_point kProcessStart = Steady::now();

double SecondsSince(Steady::time_point t) {
  return std::chrono::duration<double>(Steady::now() - t).count();
}

std::int64_t NanosBetween(Steady::time_point a, Steady::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  /// DiskTileStore backend and a shared cache of a tenth of the working
  /// set, instead of SimulatedDbmsStore and a cache holding the pyramid.
  bool disk;
  bool shared;     ///< Shared cache + single-flight.
  bool streaming;  ///< Push streaming (requires the prefetch scheduler).
  /// 0 runs prefetch synchronously on the client thread; otherwise fills
  /// go through the executor and the cross-session prefetch scheduler.
  std::size_t executor_threads;
};

// disk_cold fills synchronously: with executor threads its clients wait on
// fills, and those waits stretched several-fold whenever the host was busy,
// too often for the run-to-run spread to stay within the benchmark's bounds.
constexpr Workload kWorkloads[] = {
    {"stream_hot", false, true, true, 1},
    {"pull_hot", false, true, false, 1},
    {"disk_cold", true, true, false, 0},
    {"paper_sync", false, false, false, 0},
};

// Client threads on every workload; with the executor threads they stay
// within four cores. Three rather than one or two: on a shared host one
// core is often slower than the rest, and with fewer busy threads than
// cores each run's latency depends on where the scheduler placed them.
constexpr std::size_t kClients = 3;

/// Set-ups per untraced run; setup_s is the median of their times, so one
/// slow stretch of the host does not set it.
constexpr int kSetups = 3;

/// The dataset every workload serves: the study terrain at 512x512 cells,
/// 5 levels, 341 tiles of 32x32 cells x 4 attributes (32 KiB each), from
/// one composite day. Terrain synthesis costs about 1.7 s per day on one
/// core, so a single day keeps three set-ups per run affordable.
sim::ModisDatasetOptions BenchDataset() {
  sim::ModisDatasetOptions options = sim::DefaultStudyDataset();
  options.terrain.width = 512;
  options.terrain.height = 512;
  options.num_levels = 5;
  options.composite_days = 1;
  return options;
}

/// Models are trained on the default study traces; served traffic comes
/// from a different trace seed, so it is held out from training.
constexpr std::uint64_t kTrainingSeed = sim::StudyOptions{}.seed;

std::uint64_t ServedStudySeed(std::uint64_t seed) {
  std::uint64_t mixed = seed * 0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull;
  mixed ^= mixed >> 29;
  return mixed == kTrainingSeed ? mixed + 1 : mixed;
}

/// One served trace: the moves replayed from the root tile and the tile
/// each move lands on.
struct Replay {
  std::vector<core::Move> moves;
  std::vector<tiles::TileKey> targets;
};

/// Replays each trace's moves from the root; a move leaving the pyramid
/// ends that replay (counted in `truncated`).
std::vector<Replay> BuildReplays(const std::vector<core::Trace>& traces,
                                 const tiles::PyramidSpec& spec,
                                 std::size_t* truncated) {
  std::vector<Replay> replays;
  for (const auto& trace : traces) {
    Replay replay;
    tiles::TileKey at{0, 0, 0};
    for (std::size_t i = 1; i < trace.records.size(); ++i) {
      const auto& move = trace.records[i].request.move;
      if (!move.has_value()) continue;
      auto next = core::ApplyMove(at, *move, spec);
      if (!next.has_value()) {
        ++*truncated;
        break;
      }
      at = *next;
      replay.moves.push_back(*move);
      replay.targets.push_back(at);
    }
    replays.push_back(std::move(replay));
  }
  return replays;
}

// ---------------------------------------------------------------------------
// Correctness

enum class Verdict { kExact, kCoarse, kBad };

/// Compares a served tile with the source pyramid's. Exact means bit-equal
/// or within `exact_bound` (the L2 codec's documented error); coarse means
/// within `coarse_bound` (a progressive base served while streaming).
class TileChecker {
 public:
  TileChecker(const tiles::TilePyramid* source, double exact_bound,
              double coarse_bound)
      : source_(source), exact_bound_(exact_bound), coarse_bound_(coarse_bound) {}

  Verdict Check(const tiles::TileKey& key, const tiles::TilePtr& served) const {
    if (served == nullptr) return Verdict::kBad;
    auto source = source_->GetTile(key);
    if (!source.ok()) return Verdict::kBad;
    const tiles::Tile& want = **source;
    if (served.get() == &want) return Verdict::kExact;
    if (!(served->key() == key) || served->width() != want.width() ||
        served->height() != want.height() ||
        served->num_attrs() != want.num_attrs()) {
      return Verdict::kBad;
    }
    double max_err = 0.0;
    for (std::size_t a = 0; a < want.num_attrs(); ++a) {
      const auto& got = served->AttrData(a);
      const auto& ref = want.AttrData(a);
      if (got.size() != ref.size()) return Verdict::kBad;
      if (std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)) == 0) {
        continue;
      }
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const double err = std::fabs(got[i] - ref[i]);
        if (!(err <= coarse_bound_)) return Verdict::kBad;  // also NaN
        max_err = std::max(max_err, err);
      }
    }
    return max_err <= exact_bound_ ? Verdict::kExact : Verdict::kCoarse;
  }

 private:
  const tiles::TilePyramid* source_;
  double exact_bound_;
  double coarse_bound_;
};

/// Self-test decorator: serves a damaged copy of every tile whose
/// x + y is odd. The correctness check must report these.
class CorruptingTileStore : public storage::TileStore {
 public:
  explicit CorruptingTileStore(storage::TileStore* inner) : inner_(inner) {}

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    return Damage(inner_->Fetch(key));
  }
  std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys) override {
    auto results = inner_->FetchBatch(keys);
    for (auto& result : results) result = Damage(std::move(result));
    return results;
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_->Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_->spec(); }
  std::uint64_t fetch_count() const override { return inner_->fetch_count(); }
  std::uint64_t query_count() const override { return inner_->query_count(); }

 private:
  static Result<tiles::TilePtr> Damage(Result<tiles::TilePtr> result) {
    if (!result.ok() || ((*result)->key().x + (*result)->key().y) % 2 == 0) {
      return result;
    }
    auto copy = std::make_shared<tiles::Tile>(**result);
    copy->MutableAttrData(0)[0] += 3.0;
    return tiles::TilePtr(std::move(copy));
  }

  storage::TileStore* inner_;
};

// ---------------------------------------------------------------------------
// Clients

/// Latency histogram of fixed size, allocated before the timed phase, so
/// the benchmark's own memory does not grow with the requests served (it
/// would show in peak_rss_mb as a cost of higher throughput). Exact below
/// 128 ns, then 128 buckets per power of two (under 0.8% wide); quantiles
/// interpolate within their bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    ++counts_[Bucket(v)];
    ++count_;
    sum_ns_ += static_cast<double>(v);
  }

  void Merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }

  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ns_ = 0.0;
  }

  std::uint64_t count() const { return count_; }
  double mean_ns() const {
    return count_ > 0 ? sum_ns_ / static_cast<double>(count_) : 0.0;
  }

  /// The value of rank ceil(q * count), placed within its bucket.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(count_)));
    double below = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const double in = counts_[b];
      if (below + in >= rank) return Low(b) + Width(b) * (rank - below - 0.5) / in;
      below += in;
    }
    return Low(kBuckets - 1);
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = 35 * kSub;  ///< Up to 2^41 ns.

  static std::size_t Bucket(std::uint64_t v) {
    if (v < kSub) return v;
    const auto shift = static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return std::min<std::size_t>((shift + 1) * kSub + (v >> shift) - kSub,
                                 kBuckets - 1);
  }
  static double Low(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    return std::ldexp(static_cast<double>(kSub + b % kSub),
                      static_cast<int>(b / kSub) - 1);
  }
  static double Width(std::size_t b) {
    return b < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(b / kSub) - 1);
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

struct ClientStats {
  explicit ClientStats(std::uint32_t windows)
      : request(windows), settle(windows) {}

  /// Per measurement window. Open/ApplyMove, OK returns only.
  std::vector<LatencyHistogram> request;
  /// Per measurement window. WaitForPrefetch after each request.
  std::vector<LatencyHistogram> settle;
  std::uint64_t requests = 0;  ///< Requests that returned OK.
  std::uint64_t errors = 0;    ///< Non-OK returns (requests and closes).
  std::uint64_t hits = 0;
  std::uint64_t exact = 0;
  std::uint64_t coarse = 0;
  std::uint64_t bad = 0;
  std::uint64_t private_hits = 0;
  std::uint64_t sessions = 0;
};

struct RunContext {
  server::SessionManager* manager = nullptr;
  const std::vector<Replay>* replays = nullptr;
  const TileChecker* checker = nullptr;
  Steady::time_point start;
  Steady::time_point deadline;
  std::uint32_t windows = 1;  ///< Equal slices of [start, deadline).
  std::atomic<std::size_t> next_replay{0};
#ifdef PERFBENCH_TRACE
  perfbench::SpanRecorder* recorder = nullptr;
#endif
};

/// Issues one request, then waits out its prefetch (the think time), then
/// checks the tile served. The request and the wait (settle) are timed
/// apart; the check is not timed. Times are recorded in the window the
/// request completed in, and not at all once the deadline has passed.
void Serve(RunContext& ctx, ClientStats& stats, server::BrowserSession* session,
           const core::Move* move, const tiles::TileKey& expect) {
  std::optional<Result<server::ServedRequest>> served;
  const auto t0 = Steady::now();
  {
#ifdef PERFBENCH_TRACE
    ctx.recorder->BeginRequest();
    perfbench::ScopedSpan span(ctx.recorder,
                               perfbench::SpanName::kServerRequest);
#endif
    served.emplace(move == nullptr ? session->Open() : session->ApplyMove(*move));
  }
  const auto t1 = Steady::now();
  if (!served->ok()) {
    ++stats.errors;
    return;
  }
  ++stats.requests;
  {
#ifdef PERFBENCH_TRACE
    perfbench::ScopedSpan span(ctx.recorder, perfbench::SpanName::kServerSettle);
#endif
    session->WaitForPrefetch();
  }
  const auto t2 = Steady::now();
  if (t1 < ctx.deadline) {
    const auto window = static_cast<std::size_t>(
        NanosBetween(ctx.start, t1) * static_cast<std::int64_t>(ctx.windows) /
        NanosBetween(ctx.start, ctx.deadline));
    stats.request[window].Add(NanosBetween(t0, t1));
    stats.settle[window].Add(NanosBetween(t1, t2));
  }
  const server::ServedRequest& request = **served;
  if (request.cache_hit) ++stats.hits;
  switch (ctx.checker->Check(expect, request.tile)) {
    case Verdict::kExact: ++stats.exact; break;
    case Verdict::kCoarse: ++stats.coarse; break;
    case Verdict::kBad: ++stats.bad; break;
  }
}

/// Closed loop: replays whole sessions back to back until the deadline,
/// each in a fresh session that is closed once its last prefetch settled.
void RunClient(RunContext& ctx, std::size_t client, ClientStats* stats) {
#ifdef PERFBENCH_TRACE
  ctx.recorder->MarkClientThread();
#endif
  const tiles::TileKey root{0, 0, 0};
  while (Steady::now() < ctx.deadline) {
    const Replay& replay =
        (*ctx.replays)[ctx.next_replay.fetch_add(1) % ctx.replays->size()];
    const std::string id =
        "c" + std::to_string(client) + "-" + std::to_string(stats->sessions++);
    server::BrowserSession* session = ctx.manager->GetOrCreate(id);
    Serve(ctx, *stats, session, nullptr, root);
    for (std::size_t i = 0; i < replay.moves.size(); ++i) {
      if (Steady::now() >= ctx.deadline) break;
      Serve(ctx, *stats, session, &replay.moves[i], replay.targets[i]);
    }
    if (auto server = ctx.manager->ServerFor(id); server.ok()) {
      stats->private_hits += (*server)->cache_manager().private_hits();
    }
    if (!ctx.manager->Close(id).ok()) ++stats->errors;
  }
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Clock and sample count, for the readable table.
};

/// Shortest text that reads back as the same double.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A latency distribution summarised per measurement window: each
/// quantile is taken within every window, then the median across windows
/// is reported, so a burst of host noise in one window does not set it.
struct WindowedLatency {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;             ///< In windows.
  std::size_t min_window_samples = 0;  ///< Smallest window's count.
};

[[maybe_unused]] WindowedLatency Summarise(
    const std::vector<ClientStats>& stats,
    std::vector<LatencyHistogram> ClientStats::*field, std::uint32_t windows) {
  WindowedLatency out;
  out.min_window_samples = SIZE_MAX;
  std::vector<double> mean, p50, p90, p99;
  LatencyHistogram window;
  for (std::uint32_t k = 0; k < windows; ++k) {
    window.Clear();
    for (const auto& s : stats) window.Merge((s.*field)[k]);
    const auto n = static_cast<std::size_t>(window.count());
    out.samples += n;
    out.min_window_samples = std::min(out.min_window_samples, n);
    if (n == 0) continue;
    mean.push_back(window.mean_ns() / 1e3);
    p50.push_back(window.Quantile(0.50) / 1e3);
    p90.push_back(window.Quantile(0.90) / 1e3);
    p99.push_back(window.Quantile(0.99) / 1e3);
  }
  out.mean_us = Median(mean);
  out.p50_us = Median(p50);
  out.p90_us = Median(p90);
  out.p99_us = Median(p99);
  return out;
}

[[maybe_unused]] double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string workdir;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--workdir") {
        args->workdir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_seed && args->seconds > 0.0 && !args->workdir.empty() &&
         !args->workload.empty();
}


/// Everything the timed phase serves from: dataset, trained models, served
/// traces, backend and SessionManager. Held on the heap and never moved,
/// since its members point at one another.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    manager.reset();  // Joins the executor threads before the stores go.
    backend.reset();
    if (disk != nullptr) {
      std::error_code ec;
      std::filesystem::remove_all(disk_dir, ec);
    }
  }

  SimClock clock;
  sim::ModisDataset dataset;
  std::optional<core::PhaseClassifier> classifier;
  std::optional<core::AbRecommender> ab;
  std::optional<core::SbRecommender> sb;
  core::HybridAllocationStrategy strategy;
  std::uint64_t served_study_seed = 0;
  std::vector<Replay> replays;
  std::size_t truncated = 0;  ///< Replays ended by a move off the pyramid.
  std::unique_ptr<storage::TileStore> backend;
  storage::DiskTileStore* disk = nullptr;  ///< The backend, on disk_cold.
  std::string disk_dir;
  std::unique_ptr<CorruptingTileStore> corrupting;
#ifdef PERFBENCH_TRACE
  std::unique_ptr<perfbench::SpanRecorder> recorder;
  std::unordered_map<tiles::TileKey, std::uint64_t, tiles::TileKeyHash>
      blob_bytes;
  std::unique_ptr<perfbench::TimedTileStore> timed_store;
  std::unique_ptr<perfbench::TimedRecommender> timed_ab;
  std::unique_ptr<perfbench::TimedRecommender> timed_sb;
  std::unique_ptr<perfbench::TimedAllocation> timed_strategy;
#endif
  telemetry::MetricsRegistry registry;
  std::optional<telemetry::TraceSink> trace_sink;
  std::optional<TileChecker> checker;
  std::unique_ptr<server::SessionManager> manager;
};

/// Builds the dataset, trains the models, generates the served traces,
/// builds the backend (packing the pyramid to disk on disk_cold) and
/// constructs the SessionManager. Returns null, having said why on
/// stderr, when a step fails.
std::unique_ptr<Setup> MakeSetup(const Args& args, const Workload& workload) {
  auto s = std::make_unique<Setup>();
  auto dataset = sim::ModisDatasetBuilder(BenchDataset()).Build();
  if (!dataset.ok()) {
    std::cerr << "dataset: " << dataset.status() << "\n";
    return nullptr;
  }
  s->dataset = std::move(*dataset);
  const auto& pyramid = s->dataset.pyramid;
  auto training = sim::RunStudyOnDataset(s->dataset, sim::StudyOptions{});
  sim::StudyOptions served_options;
  served_options.seed = ServedStudySeed(args.seed);
  // Ten times the study's 18 users: over 540 traces the traffic mix, and
  // with it hit rate and per-request cost, varies little from seed to seed.
  served_options.num_users = 180;
  auto served_study = sim::RunStudyOnDataset(s->dataset, served_options);
  if (!training.ok() || !served_study.ok()) {
    std::cerr << "study traces failed\n";
    return nullptr;
  }
  auto classifier = core::PhaseClassifier::Train(training->traces);
  auto ab = core::AbRecommender::Make();
  if (!classifier.ok() || !ab.ok()) {
    std::cerr << "training failed\n";
    return nullptr;
  }
  s->classifier.emplace(std::move(*classifier));
  s->ab.emplace(std::move(*ab));
  if (!s->ab->Train(training->traces).ok()) {
    std::cerr << "training failed\n";
    return nullptr;
  }
  s->sb.emplace(&pyramid->metadata(), s->dataset.toolbox.get());
  s->served_study_seed = served_options.seed;
  s->replays = BuildReplays(served_study->traces, pyramid->spec(), &s->truncated);

  if (workload.disk) {
    s->disk_dir = args.workdir + "/disk-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(s->disk_dir, ec);
    auto opened = storage::DiskTileStore::Open(s->disk_dir, pyramid->spec());
    if (!opened.ok() || !(*opened)->SavePyramid(*pyramid).ok() ||
        !(*opened)->packed_loaded()) {
      std::cerr << "packing the pyramid under " << s->disk_dir << " failed\n";
      return nullptr;
    }
    s->disk = opened->get();
    s->backend = std::move(*opened);
  } else {
    s->backend = std::make_unique<storage::SimulatedDbmsStore>(
        pyramid, array::QueryCostModel(array::CalibratedPaperCosts(), 5),
        &s->clock);
  }
  storage::TileStore* store = s->backend.get();
  if (args.corrupt) {
    s->corrupting = std::make_unique<CorruptingTileStore>(store);
    store = s->corrupting.get();
  }

  server::SharedPredictionComponents shared;
  shared.classifier = &*s->classifier;
  shared.ab = &*s->ab;
  shared.sb = &*s->sb;
  shared.strategy = &s->strategy;

#ifdef PERFBENCH_TRACE
  s->recorder =
      std::make_unique<perfbench::SpanRecorder>(/*max_records_per_thread=*/200000);
  if (s->disk != nullptr) {
    const storage::TileCodec codec;
    for (const auto& key : pyramid->spec().AllKeys()) {
      if (auto tile = pyramid->GetTile(key); tile.ok()) {
        s->blob_bytes[key] = codec.Encode(**tile).size();
      }
    }
  }
  s->timed_store = std::make_unique<perfbench::TimedTileStore>(
      store, s->recorder.get(), s->disk != nullptr ? &s->blob_bytes : nullptr);
  store = s->timed_store.get();
  s->timed_ab = std::make_unique<perfbench::TimedRecommender>(
      &*s->ab, s->recorder.get(), perfbench::SpanName::kPredictAb);
  s->timed_sb = std::make_unique<perfbench::TimedRecommender>(
      &*s->sb, s->recorder.get(), perfbench::SpanName::kPredictSb);
  s->timed_strategy = std::make_unique<perfbench::TimedAllocation>(
      &s->strategy, s->recorder.get());
  shared.ab = s->timed_ab.get();
  shared.sb = s->timed_sb.get();
  shared.strategy = s->timed_strategy.get();
#endif

  // Telemetry is wired as in a deployment: one registry over every layer,
  // with the program's own head-sampled request tracing.
  telemetry::TraceSinkOptions trace_options;
  trace_options.capacity = 4096;
  trace_options.sample_every = 32;
  trace_options.clock = &s->clock;
  s->trace_sink.emplace(trace_options);

  const std::size_t tile_bytes = pyramid->NominalTileBytes();
  const std::size_t working_set = pyramid->tile_count() * tile_bytes;
  server::SessionManagerOptions options;
  options.metrics = &s->registry;
  options.trace = &*s->trace_sink;
  options.executor_threads = workload.executor_threads;
  options.use_shared_cache = workload.shared;
  options.single_flight = workload.shared;
  options.use_prefetch_scheduler =
      workload.shared && workload.executor_threads > 0;
  options.use_push_streaming = workload.streaming;
  options.prefetch_scheduler.batch.max_batch_tiles = 8;
  options.prefetch_scheduler.nominal_tile_bytes = tile_bytes;
  if (workload.disk) {
    // L1 + L2 together hold about a tenth of the working set.
    options.shared_cache.l1_bytes = working_set * 3 / 40;
    options.shared_cache.l2_bytes = working_set / 40;
  } else {
    // Room for the whole pyramid even when shards fill unevenly.
    options.shared_cache.l1_bytes = 2 * working_set;
    options.shared_cache.l2_bytes = 0;
  }
  s->manager = std::make_unique<server::SessionManager>(store, &s->clock, shared,
                                                        options);

  const double exact_bound =
      workload.shared && options.shared_cache.l2_bytes > 0
          ? storage::TileCodec(options.shared_cache.codec).MaxAbsError() *
                    (1.0 + 1e-9) + 1e-12
          : 0.0;
  const double coarse_bound =
      workload.streaming
          ? options.stream_scheduler.codec.progressive_base_step / 2.0 *
                    (1.0 + 1e-9) + 1e-12
          : exact_bound;
  s->checker.emplace(pyramid.get(), exact_bound, coarse_bound);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: " << argv[0]
              << " --workload <name> --seed <n> --seconds <s> --workdir <dir>"
                 " [--corrupt]\n";
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
#ifdef PERFBENCH_TRACE
  constexpr bool kTraced = true;
#else
  constexpr bool kTraced = false;
#endif

  // --- Set-up, kSetups times; the last one serves. -----------------------
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < (kTraced ? 1 : kSetups); ++i) {
    setup.reset();  // One set-up in memory at a time.
    const auto t = Steady::now();
    setup = MakeSetup(args, *workload);
    if (setup == nullptr) return 2;
    setup_times.push_back(SecondsSince(t));
  }
  const auto& pyramid = setup->dataset.pyramid;
  storage::TileStore* backend = setup->backend.get();
  [[maybe_unused]] storage::DiskTileStore* disk = setup->disk;
  server::SessionManager* manager = setup->manager.get();
  telemetry::MetricsRegistry& registry = setup->registry;
#ifdef PERFBENCH_TRACE
  perfbench::SpanRecorder& recorder = *setup->recorder;
  const perfbench::TimedTileStore& timed_store = *setup->timed_store;
#endif

  // --- Timed phase. -------------------------------------------------------
  [[maybe_unused]] const std::uint64_t backend_queries_before =
      backend->query_count();
#ifdef PERFBENCH_TRACE
  const telemetry::MetricsSnapshot before = registry.Snapshot();
  const std::uint64_t joins_before =
      manager->single_flight_store() != nullptr
          ? manager->single_flight_store()->deduped_count()
          : 0;
  const std::uint64_t syscalls_before = disk ? disk->syscall_count() : 0;
  const std::uint64_t bytes_read_before = disk ? disk->bytes_read() : 0;
#endif

  RunContext ctx;
  ctx.manager = manager;
  ctx.replays = &setup->replays;
  ctx.checker = &*setup->checker;
#ifdef PERFBENCH_TRACE
  ctx.recorder = &recorder;
  recorder.SetRecording(true);
#endif
  ctx.windows = static_cast<std::uint32_t>(
      std::max(1.0, std::floor(args.seconds / kWindowSeconds)));
  ctx.start = Steady::now();
  ctx.deadline = ctx.start + std::chrono::duration_cast<Steady::duration>(
                                 std::chrono::duration<double>(args.seconds));
  // Process CPU time at every window boundary.
  std::vector<double> cpu_marks(ctx.windows + 1);
  std::vector<ClientStats> stats(kClients, ClientStats(ctx.windows));
  {
    std::thread sampler([&ctx, &cpu_marks] {
      for (std::uint32_t k = 0; k <= ctx.windows; ++k) {
        std::this_thread::sleep_until(ctx.start + (ctx.deadline - ctx.start) *
                                                      k / ctx.windows);
        cpu_marks[k] = ProcessCpuSeconds();
      }
    });
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, std::ref(ctx), c, &stats[c]);
    }
    for (auto& t : threads) t.join();
    sampler.join();
  }
  const double elapsed_s = SecondsSince(ctx.start);
#ifdef PERFBENCH_TRACE
  recorder.SetRecording(false);
#endif

  // --- Books: one registry snapshot must tell the clients' story. ---------
  const telemetry::MetricsSnapshot after = registry.Snapshot();
  ClientStats total(0);
  std::vector<double> window_requests(ctx.windows, 0.0);
  for (auto& s : stats) {
    total.requests += s.requests;
    total.errors += s.errors;
    total.hits += s.hits;
    total.exact += s.exact;
    total.coarse += s.coarse;
    total.bad += s.bad;
    total.private_hits += s.private_hits;
    total.sessions += s.sessions;
    for (std::uint32_t k = 0; k < ctx.windows; ++k) {
      window_requests[k] += static_cast<double>(s.request[k].count());
    }
  }
  auto counter = [&](const char* name) { return after.CounterOr(name, 0); };
  std::vector<std::string> book_failures;
  std::uint64_t books = 1;
  if (counter("fc.requests.total") != total.requests) {
    book_failures.push_back(
        "fc.requests.total " + std::to_string(counter("fc.requests.total")) +
        " != requests served " + std::to_string(total.requests));
  }
  if (manager->shared_cache() != nullptr) {
    ++books;
    if (counter("fc.cache.hits") !=
        counter("fc.cache.l1_hits") + counter("fc.cache.l2_hits")) {
      book_failures.push_back("fc.cache.hits != l1_hits + l2_hits");
    }
  }
  if (manager->prefetch_scheduler() != nullptr) {
    ++books;
    const std::uint64_t retired = counter("fc.prefetch.fills_issued") +
                                  counter("fc.prefetch.dedup_saved_fetches");
    if (retired != counter("fc.prefetch.predictions_published")) {
      book_failures.push_back(
          "fills_issued + dedup_saved_fetches " + std::to_string(retired) +
          " != predictions_published " +
          std::to_string(counter("fc.prefetch.predictions_published")));
    }
  }
  for (const auto& failure : book_failures) {
    std::cerr << "books: " << failure << "\n";
  }

  const std::uint64_t attempted =
      total.requests + total.errors + books;
  const std::uint64_t failed = total.errors + total.bad + book_failures.size();
  const double requests = static_cast<double>(total.requests);

  std::vector<Metric> metrics;
  // Printed in the report only. On a shared host with one slow core the
  // latency distribution has two modes and the p50 jumps between them from
  // run to run; the p99s moved up to fourfold between runs of the same
  // code. Neither can gate a change, so the mean and p90 are gated instead.
  // Settle is not gated either: no workload waits on a fill for long (about
  // 2 us on stream_hot, where WaitForPrefetch flushes the push queue, and a
  // no-op of about 60 ns elsewhere), and such short waits moved by up to
  // 2.5x between runs of the same code.
  std::vector<Metric> report_only;
  // Per-window rates; the median over windows is reported.
  const double window_s = args.seconds / ctx.windows;
  std::vector<double> window_rate, window_cpu_us;
  for (std::uint32_t k = 0; k < ctx.windows; ++k) {
    window_rate.push_back(window_requests[k] / window_s);
    if (window_requests[k] > 0.0) {
      window_cpu_us.push_back((cpu_marks[k + 1] - cpu_marks[k]) * 1e6 /
                              window_requests[k]);
    }
  }
  const double requests_per_s = Median(window_rate);
  const std::string per_window =
      ", median of " + std::to_string(ctx.windows) + " windows";
#ifndef PERFBENCH_TRACE
  auto sample_note = [&](const WindowedLatency& w) {
    return per_window + ", n=" + std::to_string(w.samples) +
           ", min per window " + std::to_string(w.min_window_samples);
  };
  const WindowedLatency request =
      Summarise(stats, &ClientStats::request, ctx.windows);
  const WindowedLatency settle =
      Summarise(stats, &ClientStats::settle, ctx.windows);
  std::string setup_note = ", median of";
  for (double t : setup_times) setup_note += " " + FormatNumber(t);
  const std::string request_n = sample_note(request);
  const std::string settle_n = sample_note(settle);
  const array::CostModelOptions costs = array::CalibratedPaperCosts();
  const double miss_ms = array::QueryCostModel(costs).ExpectedQueryMillis(
      1, pyramid->spec().tile_width * pyramid->spec().tile_height);
  const double modelled_ms =
      Ratio(static_cast<double>(total.hits) * costs.cache_hit_ms +
                (requests - static_cast<double>(total.hits)) * miss_ms,
            requests);
  report_only = {
      {"request_us_p50", request.p50_us, "us", "wall" + request_n},
      {"request_us_p99", request.p99_us, "us", "wall" + request_n},
      {"settle_us_mean", settle.mean_us, "us", "wall" + settle_n},
      {"settle_us_p50", settle.p50_us, "us", "wall" + settle_n},
      {"settle_us_p90", settle.p90_us, "us", "wall" + settle_n},
      {"settle_us_p99", settle.p99_us, "us", "wall" + settle_n},
  };
  metrics = {
      {"setup_s", Median(setup_times), "s", "wall" + setup_note},
      {"requests_per_s", requests_per_s, "1/s", "wall" + per_window},
      {"request_us_mean", request.mean_us, "us", "wall" + request_n},
      {"request_us_p90", request.p90_us, "us", "wall" + request_n},
      {"cpu_us_per_req", Median(window_cpu_us), "us",
       "cpu of all threads" + per_window},
      {"hit_rate", Ratio(static_cast<double>(total.hits), requests), "ratio",
       "count"},
      {"exact_share", Ratio(static_cast<double>(total.exact), requests),
       "ratio", "count"},
      {"modelled_ms_mean", modelled_ms, "ms", "modelled"},
      {"backend_queries_per_req",
       Ratio(static_cast<double>(backend->query_count() - backend_queries_before),
             requests),
       "1/req", "count"},
      {"peak_rss_mb", PeakRssMiB(), "MiB", "process"},
  };
#else
  const auto spans = recorder.Totals();
  auto span_ns = [&](perfbench::SpanName name) {
    return Ratio(static_cast<double>(spans[static_cast<std::size_t>(name)].total_ns),
                 requests);
  };
  auto span_calls = [&](perfbench::SpanName name) {
    return static_cast<double>(spans[static_cast<std::size_t>(name)].calls);
  };
  using perfbench::SpanName;
  auto delta = [&](const char* name) {
    return static_cast<double>(after.CounterOr(name, 0) -
                               before.CounterOr(name, 0));
  };
  auto gauge = [&](const char* name) {
    auto it = after.gauges.find(name);
    return it == after.gauges.end() ? 0.0 : it->second;
  };
  const double cache_hits = delta("fc.cache.hits");
  const double disk_bytes =
      disk ? static_cast<double>(disk->bytes_read() - bytes_read_before) : 0.0;
  metrics = {
      {"server.request.ns", span_ns(SpanName::kServerRequest), "ns/req", "wall"},
      {"server.request.self_ns",
       Ratio(static_cast<double>(
                 spans[static_cast<std::size_t>(SpanName::kServerRequest)].self_ns),
             requests),
       "ns/req", "wall"},
      {"server.settle.ns", span_ns(SpanName::kServerSettle), "ns/req", "wall"},
      {"predict.ab.calls", span_calls(SpanName::kPredictAb), "count", ""},
      {"predict.ab.ns", span_ns(SpanName::kPredictAb), "ns/req", "wall"},
      {"predict.sb.calls", span_calls(SpanName::kPredictSb), "count", ""},
      {"predict.sb.ns", span_ns(SpanName::kPredictSb), "ns/req", "wall"},
      {"predict.alloc.ns", span_ns(SpanName::kPredictAlloc), "ns/req", "wall"},
      {"cache.l1_hits", delta("fc.cache.l1_hits"), "count", ""},
      {"cache.l2_hits", delta("fc.cache.l2_hits"), "count", ""},
      {"cache.misses", delta("fc.cache.misses"), "count", ""},
      {"cache.demotions", delta("fc.cache.demotions"), "count", ""},
      {"cache.evictions", delta("fc.cache.evictions"), "count", ""},
      {"cache.admission_rejects", delta("fc.cache.admission_rejects"), "count", ""},
      {"cache.encode_ns", Ratio(delta("fc.cache.encode_ns"), requests), "ns/req",
       "wall"},
      {"cache.decode_ns", Ratio(delta("fc.cache.decode_ns"), requests), "ns/req",
       "wall"},
      {"cache.hit_ratio", Ratio(cache_hits, cache_hits + delta("fc.cache.misses")),
       "ratio", ""},
      {"prefetch.published", delta("fc.prefetch.predictions_published"), "count",
       ""},
      {"prefetch.merged", delta("fc.prefetch.merged_predictions"), "count", ""},
      {"prefetch.fills_issued", delta("fc.prefetch.fills_issued"), "count", ""},
      {"prefetch.dedup_saved", delta("fc.prefetch.dedup_saved_fetches"), "count",
       ""},
      {"prefetch.stale_drops", delta("fc.prefetch.stale_drops"), "count", ""},
      {"prefetch.fetch_batches", delta("fc.prefetch.fetch_batches"), "count", ""},
      {"prefetch.max_queue_depth", gauge("fc.prefetch.max_queue_depth"), "count",
       ""},
      {"prefetch.deliveries", delta("fc.prefetch.deliveries"), "count", ""},
      {"prefetch.useful_ratio",
       Ratio(static_cast<double>(total.private_hits),
             delta("fc.prefetch.deliveries")),
       "ratio", "region hits / deliveries"},
      {"stream.chunks_enqueued", delta("fc.stream.chunks_enqueued"), "count", ""},
      {"stream.chunks_pushed", delta("fc.stream.chunks_pushed"), "count", ""},
      {"stream.bytes_pushed", delta("fc.stream.bytes_pushed"), "bytes", ""},
      {"stream.stale_chunks_dropped", delta("fc.stream.stale_chunks_dropped"),
       "count", ""},
      {"stream.budget_stalls", delta("fc.stream.budget_stalls"), "count", ""},
      {"stream.push_ratio",
       Ratio(delta("fc.stream.chunks_pushed"), delta("fc.stream.chunks_enqueued")),
       "ratio", "pushed / enqueued"},
      {"stream.coarse_served", static_cast<double>(total.coarse), "count", ""},
      {"storage.fetch.demand.calls", span_calls(SpanName::kStorageFetchDemand),
       "count", ""},
      {"storage.fetch.demand.ns", span_ns(SpanName::kStorageFetchDemand), "ns/req",
       "wall"},
      {"storage.fetch.fill.calls", span_calls(SpanName::kStorageFetchFill),
       "count", ""},
      {"storage.fetch.fill.ns", span_ns(SpanName::kStorageFetchFill), "ns/req",
       "wall"},
      {"storage.batch.demand.calls", span_calls(SpanName::kStorageBatchDemand),
       "count", ""},
      {"storage.batch.demand.tiles",
       static_cast<double>(timed_store.batch_tiles_demand()), "count", ""},
      {"storage.batch.demand.ns", span_ns(SpanName::kStorageBatchDemand), "ns/req",
       "wall"},
      {"storage.batch.fill.calls", span_calls(SpanName::kStorageBatchFill),
       "count", ""},
      {"storage.batch.fill.tiles",
       static_cast<double>(timed_store.batch_tiles_fill()), "count", ""},
      {"storage.batch.fill.ns", span_ns(SpanName::kStorageBatchFill), "ns/req",
       "wall"},
      {"storage.failed", static_cast<double>(timed_store.failed()), "count", ""},
      {"storage.single_flight_joins",
       manager->single_flight_store() != nullptr
           ? static_cast<double>(manager->single_flight_store()->deduped_count() -
                                 joins_before)
           : 0.0,
       "count", ""},
      {"storage.disk.syscalls",
       disk ? static_cast<double>(disk->syscall_count() - syscalls_before) : 0.0,
       "count", ""},
      {"storage.disk.bytes_read", disk_bytes, "bytes", ""},
      {"storage.disk.useful_byte_ratio",
       Ratio(static_cast<double>(timed_store.useful_bytes()), disk_bytes), "ratio",
       "useful / read"},
      {"trace.requests_per_s", requests_per_s, "1/s", "wall" + per_window},
      {"trace.spans", static_cast<double>(recorder.recorded_spans()), "count", ""},
  };
#endif

#ifdef PERFBENCH_TRACE
  // Stop the manager before writing spans: the executor threads that
  // recorded fill spans are joined by its destructor.
  setup->manager.reset();
  const std::string span_path =
      args.workdir + "/spans-" + workload->name + ".tsv";
  if (!recorder.WriteTsv(span_path)) {
    std::cerr << "could not write " << span_path << "\n";
  }
#endif

  std::cout << "workload " << workload->name << " seed " << args.seed
            << " served_study_seed " << setup->served_study_seed << " traced "
            << (kTraced ? 1 : 0) << " clients " << kClients
            << " executor_threads " << workload->executor_threads << "\n";
  std::cout << "dataset " << pyramid->tile_count() << " tiles, replays "
            << setup->replays.size() << " (moves truncated " << setup->truncated
            << "), sessions " << total.sessions << ", timed "
            << FormatNumber(elapsed_s) << " s\n";
  std::cout << "checks: requests " << total.requests << " exact " << total.exact
            << " coarse " << total.coarse << " bad " << total.bad << " errors "
            << total.errors << " books " << books << " unbalanced "
            << book_failures.size() << "\n";
  std::cout << "failed_share " << FormatNumber(Ratio(static_cast<double>(failed),
                                                     static_cast<double>(attempted)))
            << " ratio (failed " << failed << " / attempted " << attempted
            << ")\n";
#ifdef PERFBENCH_TRACE
  std::cout << "spans kept in " << span_path << ", dropped past the cap "
            << recorder.dropped_spans() << "\n";
#endif
  for (const auto& m : metrics) {
    std::cout << "metric " << m.name << " " << FormatNumber(m.value) << " "
              << m.unit << (m.note.empty() ? "" : " [" + m.note + "]") << "\n";
  }
  for (const auto& m : report_only) {
    std::cout << "report " << m.name << " " << FormatNumber(m.value) << " "
              << m.unit << " [" << m.note << "]\n";
  }

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
