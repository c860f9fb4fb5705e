// Multi-user serving throughput: requests/sec and cache hit rates as the
// number of concurrent sessions grows (1 / 4 / 16), with and without the
// process-wide SharedTileCache.
//
// This is the workload paper section 6.2 leaves as future work: N users
// exploring overlapping regions of one dataset through one middleware
// process. Each session replays a study trace on its own OS thread (up to 8
// threads), with single-flight dedup of concurrent DBMS fetches. Shared
// rows publish predictions to the cross-session PrefetchScheduler, drained
// by an 8-thread executor; private rows have no scheduler, so each session
// fills its region synchronously on its own thread. The shared cache should
// raise the aggregate hit rate over private-only sessions whenever traces
// overlap — every trace starts at the root and the study tasks revisit the
// same ROIs.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "server/session.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

struct RunResult {
  double requests_per_sec = 0.0;
  double aggregate_hit_rate = 0.0;
  double shared_cache_hit_rate = 0.0;  ///< 0 when no shared cache.
  std::uint64_t dbms_fetches = 0;
  std::uint64_t total_requests = 0;
  core::SharedTileCacheStats shared_stats;  ///< Zeroed when no shared cache.
  /// Per-request latency percentiles from the shared fc.request.latency_us
  /// histogram (common/metrics.h) — the same instrument production scrapes.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

struct TrainedComponents {
  std::unique_ptr<core::PhaseClassifier> classifier;
  std::unique_ptr<core::AbRecommender> ab;
  std::unique_ptr<core::SbRecommender> sb;
  core::HybridAllocationStrategy strategy;
};

RunResult RunSessions(const sim::Study& study, const TrainedComponents& trained,
                      std::size_t num_sessions, bool use_shared_cache) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  server::SharedPredictionComponents shared;
  shared.classifier = trained.classifier.get();
  shared.ab = trained.ab.get();
  shared.sb = trained.sb.get();
  shared.strategy = &trained.strategy;
  shared.engine_options.prefetch_k = 5;

  constexpr std::size_t kThreads = 8;
  server::SessionManagerOptions options;
  options.executor_threads = kThreads;
  options.use_shared_cache = use_shared_cache;
  // Byte-governed two-tier shared cache: ~256 decoded study tiles hot,
  // plus a compressed warm tier behind them.
  options.shared_cache.l1_bytes =
      256 * study.dataset.pyramid->NominalTileBytes();
  options.shared_cache.l2_bytes =
      64 * study.dataset.pyramid->NominalTileBytes();
  options.shared_cache.num_shards = 16;
  options.single_flight = true;
  // Latency percentiles come from the production telemetry path, not a
  // bench-side log: every server records into fc.request.latency_us.
  // Declared before the manager so the registry outlives its sources.
  telemetry::MetricsRegistry registry;
  options.metrics = &registry;
  server::SessionManager manager(&store, &clock, shared, options);

  // Cycle the study traces to fill the requested session count; duplicated
  // traces model distinct users making the same exploration.
  std::vector<server::SessionManager::SessionWorkload> workloads;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    const core::Trace& trace = study.traces[s % study.traces.size()];
    std::string id = "s" + std::to_string(s);
    workloads.push_back({id, [&trace](server::BrowserSession* session) {
      FC_RETURN_IF_ERROR(session->Open().status());
      session->WaitForPrefetch();
      for (std::size_t i = 1; i < trace.records.size(); ++i) {
        if (!trace.records[i].request.move.has_value()) continue;
        auto served = session->ApplyMove(*trace.records[i].request.move);
        (void)served;  // border rejections are fine during replay
        session->WaitForPrefetch();
      }
      return Status::OK();
    }});
  }

  auto start = std::chrono::steady_clock::now();
  auto status = manager.RunSessions(workloads,
                                    std::min(kThreads, num_sessions));
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!status.ok()) {
    std::cerr << "ERROR: " << status << "\n";
    return {};
  }

  RunResult result;
  std::uint64_t hits = 0;
  for (const auto& workload : workloads) {
    auto server = manager.ServerFor(workload.session_id);
    if (!server.ok()) continue;
    result.total_requests += (*server)->cache_manager().requests();
    hits += (*server)->cache_manager().cache_hits();
  }
  result.requests_per_sec =
      elapsed > 0 ? static_cast<double>(result.total_requests) / elapsed : 0.0;
  result.aggregate_hit_rate =
      result.total_requests == 0
          ? 0.0
          : static_cast<double>(hits) /
                static_cast<double>(result.total_requests);
  if (use_shared_cache) {
    result.shared_stats = manager.shared_cache()->Stats();
    result.shared_cache_hit_rate = result.shared_stats.HitRate();
  }
  result.dbms_fetches = store.fetch_count();
  const telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  if (const auto* latency = snapshot.FindHistogram("fc.request.latency_us")) {
    result.p50_us = latency->Quantile(0.50);
    result.p99_us = latency->Quantile(0.99);
    result.p999_us = latency->Quantile(0.999);
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Multi-user serving throughput — shared cache vs private sessions",
      "Battle et al., section 6.2 (multi-user setting, future work)");
  const auto& study = bench::GetStudy();

  TrainedComponents trained;
  {
    auto classifier = core::PhaseClassifier::Train(study.traces);
    auto ab = core::AbRecommender::Make();
    if (!classifier.ok() || !ab.ok() || !ab->Train(study.traces).ok()) {
      std::cerr << "ERROR: training failed\n";
      return 1;
    }
    trained.classifier =
        std::make_unique<core::PhaseClassifier>(std::move(*classifier));
    trained.ab = std::make_unique<core::AbRecommender>(std::move(*ab));
    trained.sb = std::make_unique<core::SbRecommender>(
        &study.dataset.pyramid->metadata(), study.dataset.toolbox.get());
  }

  eval::TablePrinter table({"Sessions", "Cache", "Requests", "Req/sec",
                            "Agg hit rate", "p50 us", "p99 us",
                            "Shared-cache hits", "DBMS fetches"});
  auto results = JsonValue::Array();
  bool shared_wins_everywhere = true;
  for (std::size_t sessions : {1u, 4u, 16u}) {
    auto private_only =
        RunSessions(study, trained, sessions, /*use_shared_cache=*/false);
    auto with_shared =
        RunSessions(study, trained, sessions, /*use_shared_cache=*/true);
    table.AddRow({std::to_string(sessions), "private",
                  std::to_string(private_only.total_requests),
                  eval::TablePrinter::Num(private_only.requests_per_sec, 0),
                  bench::Pct(private_only.aggregate_hit_rate),
                  eval::TablePrinter::Num(private_only.p50_us, 0),
                  eval::TablePrinter::Num(private_only.p99_us, 0), "-",
                  std::to_string(private_only.dbms_fetches)});
    table.AddRow({std::to_string(sessions), "shared",
                  std::to_string(with_shared.total_requests),
                  eval::TablePrinter::Num(with_shared.requests_per_sec, 0),
                  bench::Pct(with_shared.aggregate_hit_rate),
                  eval::TablePrinter::Num(with_shared.p50_us, 0),
                  eval::TablePrinter::Num(with_shared.p99_us, 0),
                  bench::Pct(with_shared.shared_cache_hit_rate),
                  std::to_string(with_shared.dbms_fetches)});
    if (sessions > 1 &&
        with_shared.aggregate_hit_rate <= private_only.aggregate_hit_rate) {
      shared_wins_everywhere = false;
    }
    for (const auto* run : {&private_only, &with_shared}) {
      auto row = JsonValue::Object();
      row.Set("sessions", sessions);
      row.Set("cache", run == &private_only ? "private" : "shared");
      row.Set("total_requests", run->total_requests);
      row.Set("requests_per_sec", run->requests_per_sec);
      row.Set("aggregate_hit_rate", run->aggregate_hit_rate);
      row.Set("p50_us", run->p50_us);
      row.Set("p99_us", run->p99_us);
      row.Set("p999_us", run->p999_us);
      row.Set("dbms_fetches", run->dbms_fetches);
      if (run == &with_shared) {
        const auto& stats = run->shared_stats;
        row.Set("shared_cache_hit_rate", run->shared_cache_hit_rate);
        row.Set("l1_hits", stats.l1_hits);
        row.Set("l2_hits", stats.l2_hits);
        row.Set("demotions", stats.demotions);
        row.Set("evictions", stats.evictions);
        row.Set("decode_ns", stats.decode_ns);
        row.Set("bytes_resident", stats.bytes_resident);
      }
      results.Push(std::move(row));
    }
  }
  table.Print();

  auto report = JsonValue::Object();
  report.Set("bench", "multiuser_throughput");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", shared_wins_everywhere);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_multiuser.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "\nWrote " << json_path << "\n";

  std::cout << "\nWith overlapping traces the shared cache converts other\n"
            << "sessions' fetches into memory hits, so the aggregate hit\n"
            << "rate rises with session count while DBMS load per session\n"
            << "falls. "
            << (shared_wins_everywhere
                    ? "Shared > private at every multi-session point.\n"
                    : "WARNING: shared cache did not beat private sessions.\n");
  return shared_wins_everywhere ? 0 : 1;
}
