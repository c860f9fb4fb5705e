// Multi-user middleware: many concurrent sessions over one shared backing
// store (the setting paper section 6.2 raises as future work).
//
// The concurrent serving core in action: sessions run on a pool of real OS
// threads, each with its own prediction-engine state and private cache
// regions, all layered over one process-wide SharedTileCache. Sessions
// publish their predictions to the cross-session PrefetchScheduler, whose
// executor fills the regions in the background, so fills overlap user think
// time instead of the request path; concurrent DBMS fetches for the same
// tile are collapsed by the single-flight store.

#include <iomanip>
#include <iostream>
#include <thread>

#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "server/session.h"
#include "sim/study.h"
#include "storage/tile_store.h"

using namespace fc;

int main() {
  std::cout << "=== ForeCache example: concurrent multi-user middleware ===\n";
  sim::ModisDatasetOptions options = sim::DefaultStudyDataset();
  options.terrain.width = 512;
  options.terrain.height = 512;
  options.num_levels = 5;
  sim::StudyOptions study_options;
  study_options.num_users = 6;
  auto study = sim::RunStudy(options, study_options);
  if (!study.ok()) {
    std::cerr << "study: " << study.status() << "\n";
    return 1;
  }

  // Shared, immutable components trained once; safe for concurrent use.
  auto classifier = core::PhaseClassifier::Train(study->traces);
  auto ab = core::AbRecommender::Make();
  if (!classifier.ok() || !ab.ok()) return 1;
  if (!ab->Train(study->traces).ok()) return 1;
  core::SbRecommender sb(&study->dataset.pyramid->metadata(),
                         study->dataset.toolbox.get());
  core::HybridAllocationStrategy strategy;

  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study->dataset.pyramid, costs, &clock);

  server::SharedPredictionComponents shared;
  shared.classifier = &*classifier;
  shared.ab = &*ab;
  shared.sb = &sb;
  shared.strategy = &strategy;
  shared.engine_options.prefetch_k = 5;

  constexpr std::size_t kThreads = 8;
  server::SessionManagerOptions manager_options;
  manager_options.executor_threads = kThreads;  // prefetch scheduler's pool
  manager_options.use_shared_cache = true;
  // Byte-governed two-tier shared cache: 128 decoded tiles hot (L1) plus a
  // compressed warm tier (L2) that keeps demoted tiles off the DBMS.
  const std::size_t tile_bytes = study->dataset.pyramid->NominalTileBytes();
  manager_options.shared_cache.l1_bytes = 128 * tile_bytes;
  manager_options.shared_cache.l2_bytes = 32 * tile_bytes;
  manager_options.shared_cache.num_shards = 16;
  manager_options.single_flight = true;
  server::SessionManager manager(&store, &clock, shared, manager_options);

  // One session per study trace — every user's full browsing history
  // replayed concurrently against the shared store.
  std::vector<const core::Trace*> live;
  for (const auto& trace : study->traces) live.push_back(&trace);

  std::vector<server::SessionManager::SessionWorkload> workloads;
  for (const auto* trace : live) {
    std::string id = trace->user_id + "/task" + std::to_string(trace->task_id);
    workloads.push_back({id, [trace](server::BrowserSession* session) {
      FC_RETURN_IF_ERROR(session->Open().status());
      session->WaitForPrefetch();  // think time covers the fill
      for (std::size_t i = 1; i < trace->records.size(); ++i) {
        const auto& rec = trace->records[i];
        if (!rec.request.move.has_value()) continue;
        auto served = session->ApplyMove(*rec.request.move);
        (void)served;  // border rejections are fine during replay
        session->WaitForPrefetch();
      }
      return Status::OK();
    }});
  }

  auto status = manager.RunSessions(workloads, kThreads);
  if (!status.ok()) {
    std::cerr << "replay: " << status << "\n";
    return 1;
  }

  std::cout << "Replayed " << workloads.size() << " concurrent sessions on "
            << kThreads << " OS threads over one shared store.\n\n";
  std::cout << std::fixed << std::setprecision(1);
  for (const auto& workload : workloads) {
    const auto& id = workload.session_id;
    auto server = manager.ServerFor(id);
    if (!server.ok()) continue;
    const auto& cache = (*server)->cache_manager();
    std::cout << "  session " << id << ": " << cache.requests()
              << " requests, hit rate " << cache.HitRate() * 100.0
              << "% (private " << cache.PrivateHitRate() * 100.0
              << "%, shared +"
              << (cache.HitRate() - cache.PrivateHitRate()) * 100.0 << "%)\n";
  }

  auto stats = manager.shared_cache()->Stats();
  const auto* flight = manager.single_flight_store();
  std::cout << "\nShared cache: " << manager.shared_cache()->size()
            << " tiles resident (" << manager.shared_cache()->l1_size()
            << " decoded + " << manager.shared_cache()->l2_size()
            << " compressed) in " << stats.bytes_resident << " bytes, "
            << stats.hits << " hits / " << stats.misses << " misses ("
            << stats.HitRate() * 100.0 << "%; " << stats.l2_hits
            << " decoded from L2 in "
            << static_cast<double>(stats.decode_ns) / 1e6 << " ms), "
            << stats.demotions << " demotions, " << stats.evictions
            << " evictions\n"
            << "Single-flight: " << flight->deduped_count() << " of "
            << flight->fetch_count() << " fetches joined an in-flight query\n"
            << "DBMS: " << store.fetch_count() << " queries, "
            << store.total_query_millis() / 1000.0 << " s simulated\n"
            << "Background prefetch tasks completed: "
            << manager.executor()->tasks_completed() << " on "
            << manager.executor()->num_threads() << " threads\n"
            << "\nSessions exploring the same region reuse each other's\n"
            << "fetched tiles: the DBMS sees each hot tile once, not once\n"
            << "per session.\n";
  return 0;
}
