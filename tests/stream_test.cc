// Stream-conformance harness for the continuous push channel
// (core/stream_scheduler.h + server/push_stream.h).
//
// Deterministic pull-mode goldens pin the scheduling order (class before
// utility, byte budgets, supersession) on a SimClock; a randomized property checks the progressive schedule is
// observationally equivalent to the all-or-nothing one (same final tile
// bits, first-usable chunk never later); the split-memo tests pin that a
// tile object is split once and that the memo changes no pushed bit; and
// the executor-mode stress tests (session churn mid-stream, manager
// teardown under in-flight pushes) run under TSan and ASan+UBSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/stream_scheduler.h"
#include "server/session.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"
#include "tiles/tile.h"

namespace fc {
namespace {

using core::StreamScheduler;
using core::StreamSchedulerOptions;
using core::StreamSessionLimits;

// One delivered chunk, as a test sink records it.
struct Delivery {
  std::uint64_t session = 0;
  tiles::TileKey key;
  bool exact = false;
  std::uint64_t generation = 0;
  double at_ms = 0.0;  ///< Clock reading at delivery (when a clock exists).
};

/// A sink appending to `log` tagged with `session` (single-threaded pull
/// mode only — pull-mode pumps deliver on the calling thread).
StreamScheduler::ChunkSink Record(std::vector<Delivery>* log,
                                  std::uint64_t session,
                                  const SimClock* clock = nullptr) {
  return [log, session, clock](const tiles::TileKey& key,
                               const tiles::TilePtr& tile, bool exact,
                               std::uint64_t generation) {
    ASSERT_NE(tile, nullptr);
    log->push_back({session, key, exact, generation,
                    clock != nullptr ? clock->NowMillis() : 0.0});
  };
}

/// An 8x8 single-attribute tile with Gaussian cells (seeded, reproducible).
tiles::TilePtr GaussianTile(const tiles::TileKey& key, std::uint64_t seed,
                            double sigma = 100.0) {
  auto tile = tiles::Tile::Make(key, 8, 8, {"v"});
  EXPECT_TRUE(tile.ok());
  Rng rng(seed);
  for (auto& v : tile->MutableAttrData(0)) v = rng.Gaussian(0, sigma);
  return std::make_shared<const tiles::Tile>(std::move(*tile));
}

std::vector<std::uint64_t> CellBits(const tiles::Tile& tile) {
  std::vector<std::uint64_t> bits;
  for (std::size_t a = 0; a < tile.attr_names().size(); ++a) {
    for (double v : tile.AttrData(a)) {
      std::uint64_t b = 0;
      std::memcpy(&b, &v, sizeof(b));
      bits.push_back(b);
    }
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Scheduling-order goldens (pull mode, deterministic)

// Progressive mode: every usable base outranks every refinement, bases go
// in confidence order (equal sizes), refinements follow in their own
// utility order, and the base payload is lossy while the refinement
// delivery carries the exact tile.
TEST(StreamSchedulerTest, BasesBeforeRefinementsInUtilityOrder) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(/*executor=*/nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(7, {}, Record(&log, 7));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 2, 0};
  scheduler.SubmitTile(session, b, GaussianTile(b, 2), 1, 0.5);
  scheduler.SubmitTile(session, a, GaussianTile(a, 1), 1, 0.9);
  scheduler.SubmitTile(session, c, GaussianTile(c, 3), 1, 0.1);
  EXPECT_EQ(scheduler.queued(), 6u);  // base + refinement per tile

  EXPECT_EQ(scheduler.Flush(), 6u);
  ASSERT_EQ(log.size(), 6u);
  // Class 0 in confidence order (identical dims -> identical blob sizes).
  EXPECT_EQ(log[0].key, a);
  EXPECT_FALSE(log[0].exact);
  EXPECT_EQ(log[1].key, b);
  EXPECT_FALSE(log[1].exact);
  EXPECT_EQ(log[2].key, c);
  EXPECT_FALSE(log[2].exact);
  // Then class 1, same order (refinement rank is also confidence-driven).
  EXPECT_EQ(log[3].key, a);
  EXPECT_TRUE(log[3].exact);
  EXPECT_EQ(log[4].key, b);
  EXPECT_TRUE(log[4].exact);
  EXPECT_EQ(log[5].key, c);
  EXPECT_TRUE(log[5].exact);

  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.tiles_submitted, 3u);
  EXPECT_EQ(stats.chunks_pushed, 6u);
  EXPECT_EQ(stats.base_chunks_pushed, 3u);
  EXPECT_EQ(stats.exact_chunks_pushed, 3u);
  EXPECT_EQ(stats.first_usable_pushes, 3u);
}

// All-or-nothing mode: one exact chunk per tile, in confidence order —
// the request-triggered baseline the equivalence property compares with.
TEST(StreamSchedulerTest, AllOrNothingPushesWholeTilesOnce) {
  StreamSchedulerOptions options;
  options.progressive = false;
  StreamScheduler scheduler(/*executor=*/nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(7, {}, Record(&log, 7));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  scheduler.SubmitTile(session, b, GaussianTile(b, 2), 1, 0.4);
  scheduler.SubmitTile(session, a, GaussianTile(a, 1), 1, 0.8);
  EXPECT_EQ(scheduler.queued(), 2u);
  EXPECT_EQ(scheduler.Flush(), 2u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].key, a);
  EXPECT_TRUE(log[0].exact);
  EXPECT_EQ(log[1].key, b);
  EXPECT_TRUE(log[1].exact);
  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.base_chunks_pushed, 0u);
  EXPECT_EQ(stats.first_usable_pushes, 2u);
}

// Byte budgets pace the stream on the clock: a burst-sized bucket releases
// exactly one base per refill window, oversized refinements go out at a
// full bucket (driving it negative), and a starved round counts a stall.
TEST(StreamSchedulerTest, ByteBudgetPacesChunksOnTheClock) {
  // Probe the chunk sizes first (clockless twin with the same codec).
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  std::size_t base_bytes = 0, refine_bytes = 0;
  {
    StreamScheduler probe(nullptr, options);
    std::vector<Delivery> sink;
    auto id = probe.RegisterSession(1, {}, Record(&sink, 1));
    probe.SubmitTile(id, {1, 0, 0}, GaussianTile({1, 0, 0}, 11), 1, 0.9);
    for (const auto& chunk : probe.SnapshotQueue()) {
      (chunk.exact ? refine_bytes : base_bytes) = chunk.bytes;
    }
  }
  ASSERT_GT(base_bytes, 0u);
  ASSERT_GT(refine_bytes, base_bytes);  // residuals outweigh the coarse base

  SimClock clock;
  options.clock = &clock;
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  StreamSessionLimits limits;
  limits.bytes_per_ms = 1.0;
  limits.burst_bytes = base_bytes;  // bucket fits exactly one base
  const std::uint64_t session =
      scheduler.RegisterSession(1, limits, Record(&log, 1, &clock));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  scheduler.SubmitTile(session, a, GaussianTile(a, 11), 1, 0.9);
  scheduler.SubmitTile(session, b, GaussianTile(b, 12), 1, 0.8);

  // t=0: the bucket starts full — one base goes, the second is starved.
  EXPECT_EQ(scheduler.Pump(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].key, a);
  EXPECT_FALSE(log[0].exact);
  EXPECT_EQ(scheduler.Pump(), 0u);  // no time passed, no tokens earned
  EXPECT_GE(scheduler.Stats().budget_stalls, 1u);

  // One refill window releases exactly the second base.
  clock.AdvanceMillis(static_cast<double>(base_bytes));
  EXPECT_EQ(scheduler.Pump(), 1u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].key, b);
  EXPECT_FALSE(log[1].exact);

  // Refinements exceed the burst: they go out only at a FULL bucket, one
  // per bucket-recovery window (the balance goes negative in between).
  clock.AdvanceMillis(static_cast<double>(refine_bytes));
  EXPECT_EQ(scheduler.Pump(), 1u);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].key, a);
  EXPECT_TRUE(log[2].exact);
  EXPECT_EQ(scheduler.Pump(), 0u);  // bucket is negative now

  clock.AdvanceMillis(static_cast<double>(2 * refine_bytes));
  EXPECT_EQ(scheduler.Flush(), 1u);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[3].key, b);
  EXPECT_TRUE(log[3].exact);
  EXPECT_EQ(scheduler.queued(), 0u);
}

// A new publication sheds the previous generation's queued chunks —
// including the gated refinement of a dropped base — without touching the
// live generation.
TEST(StreamSchedulerTest, StaleGenerationsShedQueuedPairs) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(4, {}, Record(&log, 4));

  scheduler.SubmitTile(session, {1, 0, 0}, GaussianTile({1, 0, 0}, 1), 1, 0.9);
  scheduler.SubmitTile(session, {1, 1, 0}, GaussianTile({1, 1, 0}, 2), 1, 0.8);
  scheduler.SubmitTile(session, {1, 2, 0}, GaussianTile({1, 2, 0}, 3), 2, 0.7);
  EXPECT_EQ(scheduler.queued(), 6u);

  scheduler.CancelStaleGenerations(session, /*live_generation=*/2);
  EXPECT_EQ(scheduler.queued(), 2u);
  EXPECT_EQ(scheduler.Stats().stale_chunks_dropped, 4u);

  EXPECT_EQ(scheduler.Flush(), 2u);
  ASSERT_EQ(log.size(), 2u);
  for (const auto& delivery : log) {
    EXPECT_EQ(delivery.generation, 2u);
    EXPECT_EQ(delivery.key, (tiles::TileKey{1, 2, 0}));
  }
}

// ---------------------------------------------------------------------------
// The conformance property: under identical byte budgets on one clock, the
// progressive schedule delivers every tile's final payload bit-identically
// to the all-or-nothing schedule, and makes each tile usable NO LATER.

TEST(StreamSchedulerTest, ProgressiveEquivalentToAllOrNothingNeverLater) {
  for (std::uint64_t seed : {501u, 502u, 503u}) {
    Rng rng(seed);
    SimClock clock;  // one clock: both schedulers see identical time

    StreamSchedulerOptions base_options;
    base_options.clock = &clock;
    base_options.codec.progressive_base_step = 8.0;
    base_options.total_bytes_per_ms = 100.0;
    base_options.total_burst_bytes = 4096;

    StreamSchedulerOptions progressive_options = base_options;
    progressive_options.progressive = true;
    StreamSchedulerOptions aon_options = base_options;
    aon_options.progressive = false;

    StreamScheduler progressive(nullptr, progressive_options);
    StreamScheduler aon(nullptr, aon_options);

    struct PerKey {
      double first_usable_p = -1.0, first_usable_a = -1.0;
      tiles::TilePtr final_p, final_a;
    };
    std::map<std::pair<std::uint64_t, tiles::TileKey>, PerKey> outcomes;

    constexpr std::size_t kSessions = 3;
    std::uint64_t p_ids[kSessions], a_ids[kSessions];
    for (std::size_t s = 0; s < kSessions; ++s) {
      StreamSessionLimits limits;
      limits.bytes_per_ms = 50.0;
      limits.burst_bytes = 2048;
      const std::uint64_t tag = s + 1;
      p_ids[s] = progressive.RegisterSession(
          tag, limits,
          [&outcomes, tag, &clock](const tiles::TileKey& key,
                                   const tiles::TilePtr& tile, bool exact,
                                   std::uint64_t) {
            auto& out = outcomes[{tag, key}];
            if (out.first_usable_p < 0.0) out.first_usable_p = clock.NowMillis();
            if (exact) out.final_p = tile;
          });
      a_ids[s] = aon.RegisterSession(
          tag, limits,
          [&outcomes, tag, &clock](const tiles::TileKey& key,
                                   const tiles::TilePtr& tile, bool exact,
                                   std::uint64_t) {
            auto& out = outcomes[{tag, key}];
            if (out.first_usable_a < 0.0) out.first_usable_a = clock.NowMillis();
            if (exact) out.final_a = tile;
          });
    }

    // One up-front wave of identical submissions to both schedulers (the
    // regime the never-later guarantee covers; see the scheduler header).
    std::map<std::pair<std::uint64_t, tiles::TileKey>, tiles::TilePtr> truth;
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (int i = 0; i < 8; ++i) {
        tiles::TileKey key{2, i, static_cast<int>(s)};
        auto tile = GaussianTile(key, seed * 1000 + s * 100 + i);
        double confidence = rng.UniformInt(1, 100) / 100.0;
        progressive.SubmitTile(p_ids[s], key, tile, 1, confidence);
        aon.SubmitTile(a_ids[s], key, tile, 1, confidence);
        truth[{s + 1, key}] = tile;
      }
    }

    // Drive both in lockstep, 1 virtual ms per step.
    for (int step = 0; step < 5000; ++step) {
      progressive.Pump();
      aon.Pump();
      if (progressive.queued() == 0 && aon.queued() == 0) break;
      clock.AdvanceMillis(1.0);
    }
    ASSERT_EQ(progressive.queued(), 0u);
    ASSERT_EQ(aon.queued(), 0u);

    ASSERT_EQ(outcomes.size(), truth.size());
    for (auto& [id, out] : outcomes) {
      // Same final bytes: both schedules converge on the exact payload of
      // the configured encoding, bit for bit.
      ASSERT_NE(out.final_p, nullptr);
      ASSERT_NE(out.final_a, nullptr);
      EXPECT_EQ(CellBits(*out.final_p), CellBits(*out.final_a));
      EXPECT_EQ(CellBits(*out.final_p), CellBits(*truth[id]));
      // Never later: the coarse base (a fraction of the full blob) makes
      // the tile usable at or before the all-or-nothing push.
      ASSERT_GE(out.first_usable_p, 0.0);
      ASSERT_GE(out.first_usable_a, 0.0);
      EXPECT_LE(out.first_usable_p, out.first_usable_a)
          << "seed " << seed << " session " << id.first << " tile "
          << id.second.ToString();
    }
    // And strictly earlier in aggregate — otherwise streaming buys nothing.
    double sum_p = 0.0, sum_a = 0.0;
    for (auto& [id, out] : outcomes) {
      sum_p += out.first_usable_p;
      sum_a += out.first_usable_a;
    }
    EXPECT_LT(sum_p, sum_a);
  }
}

// ---------------------------------------------------------------------------
// Split memo: a tile object is split once however often it is submitted,
// an address reused by a new tile never sees a stale split, the memo stays
// bounded by the live tiles, and no pushed bit changes.

// One pushed chunk with its payload bits, for bit-for-bit comparisons.
struct PushedChunk {
  std::uint64_t session = 0;
  tiles::TileKey key;
  bool exact = false;
  std::vector<std::uint64_t> bits;

  bool operator==(const PushedChunk& other) const {
    return session == other.session && key == other.key &&
           exact == other.exact && bits == other.bits;
  }
};

StreamScheduler::ChunkSink RecordBits(std::vector<PushedChunk>* log,
                                      std::uint64_t session) {
  return [log, session](const tiles::TileKey& key, const tiles::TilePtr& tile,
                        bool exact, std::uint64_t) {
    ASSERT_NE(tile, nullptr);
    log->push_back({session, key, exact, CellBits(*tile)});
  };
}

TEST(StreamSplitMemoTest, TileSubmittedAcrossSessionsIsSplitOnce) {
  telemetry::MetricsRegistry registry;
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  const std::uint64_t source =
      core::RegisterStreamSchedulerMetrics(&registry, &scheduler);
  std::vector<PushedChunk> log;
  std::uint64_t ids[3];
  for (std::uint64_t s = 0; s < 3; ++s) {
    ids[s] = scheduler.RegisterSession(s + 1, {}, RecordBits(&log, s + 1));
  }

  const tiles::TileKey key{1, 0, 0};
  const tiles::TilePtr tile = GaussianTile(key, 31);
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t id : ids) {
      scheduler.SubmitTile(id, key, tile, 1 + round, 0.5);
    }
    scheduler.Flush();
  }

  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.tiles_submitted, 3u * kRounds);
  EXPECT_EQ(stats.splits_built, 1u);
  EXPECT_EQ(stats.chunks_pushed, 2u * 3u * kRounds);
  EXPECT_EQ(scheduler.memoized_splits(), 1u);
  EXPECT_EQ(registry.Snapshot().CounterOr("fc.stream.splits_built", 99), 1u);
  // A distinct object with the same content is a distinct tile.
  scheduler.SubmitTile(ids[0], key, std::make_shared<const tiles::Tile>(*tile),
                       9, 0.5);
  EXPECT_EQ(scheduler.Stats().splits_built, 2u);
  registry.RemoveSource(source);
}

TEST(StreamSplitMemoTest, ReusedAddressGetsAFreshSplit) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<PushedChunk> log;
  const std::uint64_t id = scheduler.RegisterSession(1, {}, RecordBits(&log, 1));

  // Both tiles are built in one buffer, so the second one lives at the
  // first one's address; each gets its own control block, as a heap
  // allocator reusing a freed block would give it.
  alignas(tiles::Tile) unsigned char slot[sizeof(tiles::Tile)];
  auto in_slot = [&slot](const tiles::TilePtr& model) {
    return tiles::TilePtr(new (slot) tiles::Tile(*model),
                          [](const tiles::Tile* t) { t->~Tile(); });
  };
  const tiles::TileKey key{1, 0, 0};
  const tiles::TilePtr first_model = GaussianTile(key, 41);
  const tiles::TilePtr second_model = GaussianTile(key, 42);

  tiles::TilePtr first = in_slot(first_model);
  const tiles::Tile* address = first.get();
  scheduler.SubmitTile(id, key, first, 1, 0.5);
  EXPECT_EQ(scheduler.Flush(), 2u);
  first.reset();  // the scheduler holds no strong reference after the push

  tiles::TilePtr second = in_slot(second_model);
  ASSERT_EQ(second.get(), address);
  scheduler.SubmitTile(id, key, second, 2, 0.5);
  EXPECT_EQ(scheduler.Flush(), 2u);
  EXPECT_EQ(scheduler.Stats().splits_built, 2u);

  ASSERT_EQ(log.size(), 4u);
  EXPECT_TRUE(log[1].exact);
  EXPECT_TRUE(log[3].exact);
  EXPECT_EQ(log[1].bits, CellBits(*first_model));
  EXPECT_EQ(log[3].bits, CellBits(*second_model));
  EXPECT_NE(log[2].bits, log[0].bits);  // the second base is not the first
  second.reset();
}

TEST(StreamSplitMemoTest, MemoStaysBoundedByLiveTiles) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<PushedChunk> log;
  const std::uint64_t id = scheduler.RegisterSession(1, {}, RecordBits(&log, 1));

  // 64 is the size of the first sweep: with no tile kept alive, the memo
  // never grows past it however many tiles go through.
  constexpr std::size_t kFloor = 64;
  for (int i = 0; i < 500; ++i) {
    const tiles::TileKey key{2, i % 20, i / 20};
    scheduler.SubmitTile(id, key, GaussianTile(key, 5000 + i), 1, 0.5);
    scheduler.Flush();
    ASSERT_LE(scheduler.memoized_splits(), kFloor) << "after tile " << i;
  }
  EXPECT_EQ(scheduler.Stats().splits_built, 500u);

  // Live tiles keep their entries (resubmitting them builds nothing), and
  // the memo stays within twice the live set while transient tiles churn.
  std::vector<tiles::TilePtr> live;
  for (int i = 0; i < 100; ++i) {
    const tiles::TileKey key{3, i % 10, i / 10};
    live.push_back(GaussianTile(key, 7000 + i));
    scheduler.SubmitTile(id, key, live.back(), 2, 0.5);
  }
  scheduler.Flush();
  for (int i = 0; i < 300; ++i) {
    const tiles::TileKey key{4, i % 20, i / 20};
    scheduler.SubmitTile(id, key, GaussianTile(key, 9000 + i), 3, 0.5);
    scheduler.Flush();
    ASSERT_LE(scheduler.memoized_splits(), 2 * live.size()) << "tile " << i;
  }
  EXPECT_GE(scheduler.memoized_splits(), live.size());
  const std::uint64_t built = scheduler.Stats().splits_built;
  for (const tiles::TilePtr& tile : live) {
    scheduler.SubmitTile(id, tile->key(), tile, 4, 0.5);
  }
  scheduler.Flush();
  EXPECT_EQ(scheduler.Stats().splits_built, built);
}

// The memo changes no pushed bit: one scheduler sees the same tile objects
// again and again (memo hits), its twin a fresh copy on every submission
// (memo misses). Chunk sizes, ranks, order and payload bits must match, in
// both streaming modes and for a lossless and a lossy final encoding.
TEST(StreamSplitMemoTest, PushedBitsIdenticalToFreshSplits) {
  for (bool progressive : {true, false}) {
    for (storage::TileEncoding encoding :
         {storage::TileEncoding::kRawF64, storage::TileEncoding::kDeltaVarint}) {
      SCOPED_TRACE(testing::Message() << "progressive " << progressive
                                      << " encoding "
                                      << static_cast<int>(encoding));
      StreamSchedulerOptions options;
      options.progressive = progressive;
      options.codec.encoding = encoding;
      options.codec.quant_step = 0.5;
      options.codec.progressive_base_step = 8.0;
      StreamScheduler memo(nullptr, options);
      StreamScheduler fresh(nullptr, options);
      std::vector<PushedChunk> memo_log, fresh_log;
      std::uint64_t memo_ids[3], fresh_ids[3];
      for (std::uint64_t s = 0; s < 3; ++s) {
        memo_ids[s] = memo.RegisterSession(s + 1, {}, RecordBits(&memo_log, s + 1));
        fresh_ids[s] =
            fresh.RegisterSession(s + 1, {}, RecordBits(&fresh_log, s + 1));
      }
      std::vector<tiles::TilePtr> sources;
      for (int i = 0; i < 6; ++i) {
        const tiles::TileKey key{2, i, 0};
        sources.push_back(GaussianTile(key, 600 + i, 10.0 + 40.0 * i));
      }
      Rng rng(77);
      for (int round = 0; round < 5; ++round) {
        for (int n = 0; n < 8; ++n) {
          const std::size_t s = rng.UniformUint32(3);
          const tiles::TilePtr& tile = sources[rng.UniformUint32(6)];
          const double confidence = rng.UniformInt(1, 100) / 100.0;
          memo.SubmitTile(memo_ids[s], tile->key(), tile, 1 + round,
                          confidence);
          fresh.SubmitTile(fresh_ids[s], tile->key(),
                           std::make_shared<const tiles::Tile>(*tile),
                           1 + round, confidence);
        }
        const auto memo_queue = memo.SnapshotQueue();
        const auto fresh_queue = fresh.SnapshotQueue();
        ASSERT_EQ(memo_queue.size(), fresh_queue.size());
        for (std::size_t i = 0; i < memo_queue.size(); ++i) {
          EXPECT_EQ(memo_queue[i].key, fresh_queue[i].key);
          EXPECT_EQ(memo_queue[i].exact, fresh_queue[i].exact);
          EXPECT_EQ(memo_queue[i].bytes, fresh_queue[i].bytes);
          EXPECT_EQ(memo_queue[i].utility_per_byte,
                    fresh_queue[i].utility_per_byte);
        }
        memo.Flush();
        fresh.Flush();
      }
      EXPECT_FALSE(memo_log.empty());
      EXPECT_EQ(memo_log, fresh_log);
      EXPECT_LE(memo.Stats().splits_built, 6u);
      EXPECT_EQ(fresh.Stats().splits_built, fresh.Stats().tiles_submitted);
    }
  }
}

// ---------------------------------------------------------------------------
// TSan stress: session churn racing submissions, cancellations, and the
// executor self-pump mid-stream. Run under TSan in CI.

TEST(StreamSchedulerStressTest, SessionChurnUnderConcurrentSubmitAndPump) {
  constexpr std::size_t kSlots = 8;
  constexpr int kSubmittersPerSlot = 2;
  constexpr int kSubmissions = 150;

  Executor executor(4);
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(&executor, options);

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> slots[kSlots];
  auto register_slot = [&] {
    return scheduler.RegisterSession(
        0, {},
        [&delivered](const tiles::TileKey&, const tiles::TilePtr& tile, bool,
                     std::uint64_t) {
          ASSERT_NE(tile, nullptr);
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
  };
  for (std::size_t s = 0; s < kSlots; ++s) slots[s].store(register_slot());

  std::vector<std::thread> threads;
  // Submitters target whatever session currently occupies their slot;
  // stale ids (the slot churned underneath them) drop as stale.
  for (std::size_t s = 0; s < kSlots; ++s) {
    for (int w = 0; w < kSubmittersPerSlot; ++w) {
      threads.emplace_back([&, s, w] {
        Rng rng(7000 + s * 10 + w);
        for (int i = 0; i < kSubmissions; ++i) {
          tiles::TileKey key{2, static_cast<int>(rng.UniformInt(0, 20)),
                             static_cast<int>(rng.UniformInt(0, 20))};
          scheduler.SubmitTile(slots[s].load(std::memory_order_relaxed), key,
                               GaussianTile(key, 9000 + i), 1 + i % 3,
                               rng.UniformInt(0, 100) / 100.0);
        }
      });
    }
  }
  // Churn: repeatedly tear a slot's session down mid-stream (waits out its
  // in-flight pushes) and replace it.
  threads.emplace_back([&] {
    for (int round = 0; round < 30; ++round) {
      std::size_t slot = static_cast<std::size_t>(round) % kSlots;
      std::uint64_t old_id = slots[slot].load(std::memory_order_relaxed);
      std::uint64_t fresh = register_slot();
      slots[slot].store(fresh, std::memory_order_relaxed);
      scheduler.UnregisterSession(old_id);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Canceller: generation supersession and full cancels race the pump.
  threads.emplace_back([&] {
    Rng rng(7777);
    for (int round = 0; round < 60; ++round) {
      std::size_t slot = rng.UniformUint32(kSlots);
      std::uint64_t id = slots[slot].load(std::memory_order_relaxed);
      if (round % 4 == 0) {
        scheduler.CancelSession(id);
      } else {
        scheduler.CancelStaleGenerations(id, 1 + round % 3);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (auto& t : threads) t.join();
  scheduler.Flush();  // settle anything the parked self-pump left behind
  executor.Wait();
  scheduler.Shutdown();

  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.chunks_pushed,
            stats.base_chunks_pushed + stats.exact_chunks_pushed);
  EXPECT_EQ(stats.chunks_pushed, delivered.load());
  // Every enqueued chunk was either pushed or accounted as dropped (the
  // stale counter also covers submissions rejected before enqueue, so it
  // bounds from above).
  EXPECT_LE(stats.chunks_pushed, stats.chunks_enqueued);
  EXPECT_LE(stats.chunks_enqueued,
            stats.chunks_pushed + stats.stale_chunks_dropped);
  EXPECT_EQ(scheduler.queued(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end through the serving stack: streaming on delivers the same
// tiles to the same caches, so a deterministic replay sees identical hit
// sequences with the channel on or off.

std::shared_ptr<tiles::TilePyramid> StreamTestPyramid(int levels = 4) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0, static_cast<double>(x + y));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = levels;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  EXPECT_TRUE(pyramid.ok());
  return *pyramid;
}

struct StreamEngineParts {
  core::AbRecommender ab;
  core::FixedAllocationStrategy strategy{"all-ab", 1.0};

  static StreamEngineParts Make() {
    auto ab = core::AbRecommender::Make();
    EXPECT_TRUE(ab.ok());
    EXPECT_TRUE(ab->Train({}).ok());
    return StreamEngineParts{std::move(*ab)};
  }
};

std::vector<core::Move> StreamMoveTape(std::uint64_t seed, std::size_t length) {
  Rng rng(seed, /*stream=*/17);
  std::vector<core::Move> tape;
  tape.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    tape.push_back(
        static_cast<core::Move>(rng.UniformInt(0, core::kNumMoves - 1)));
  }
  return tape;
}

TEST(PushStreamIntegrationTest, StreamingPreservesReplayHitSequence) {
  auto pyramid = StreamTestPyramid();
  auto parts = StreamEngineParts::Make();
  server::SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 4;

  const auto tape = StreamMoveTape(/*seed=*/4200, /*length=*/40);
  auto replay = [&](bool streaming) {
    storage::MemoryTileStore store(pyramid);
    SimClock clock;
    server::SessionManagerOptions options;
    options.executor_threads = 2;
    options.use_push_streaming = streaming;
    options.stream_scheduler.codec.progressive_base_step = 8.0;
    server::SessionManager manager(&store, &clock, shared, options);
    server::BrowserSession* session = manager.GetOrCreate("u1");
    std::vector<bool> hits;
    auto opened = session->Open();
    EXPECT_TRUE(opened.ok());
    session->WaitForPrefetch();
    manager.executor()->Wait();  // settle self-pumped stream deliveries
    for (core::Move move : tape) {
      auto served = session->ApplyMove(move);
      if (!served.ok()) {
        EXPECT_TRUE(served.status().IsInvalidArgument());
        continue;
      }
      hits.push_back(served->cache_hit);
      session->WaitForPrefetch();
      manager.executor()->Wait();
    }
    if (streaming) {
      EXPECT_NE(manager.stream_scheduler(), nullptr);
      if (manager.stream_scheduler() != nullptr) {
        auto stats = manager.stream_scheduler()->Stats();
        EXPECT_GT(stats.tiles_submitted, 0u);
        EXPECT_EQ(stats.first_usable_pushes, stats.tiles_submitted);
      }
      // The session's stream saw both fidelities.
      auto server = manager.ServerFor("u1");
      EXPECT_TRUE(server.ok());
      if (server.ok() && (*server)->push_stream() != nullptr) {
        auto counters = (*server)->push_stream()->counters();
        EXPECT_GT(counters.base_delivered, 0u);
        EXPECT_GT(counters.exact_delivered, 0u);
      } else {
        ADD_FAILURE() << "streaming server has no push stream";
      }
    } else {
      EXPECT_EQ(manager.stream_scheduler(), nullptr);
    }
    return hits;
  };

  auto without = replay(false);
  auto with = replay(true);
  EXPECT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

// Settle regression: WaitForPrefetch must also wait out chunks the
// executor self-pump picked before the session's own flush ran. Otherwise
// the next request can be served a coarse base. After every wait, each
// tile resident in the prefetch region is the exact tile.
TEST(PushStreamIntegrationTest, WaitForPrefetchLeavesOnlyExactTiles) {
  auto pyramid = StreamTestPyramid();
  auto parts = StreamEngineParts::Make();
  server::SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 8;

  storage::MemoryTileStore store(pyramid);
  SimClock clock;
  server::SessionManagerOptions options;
  options.executor_threads = 4;
  options.use_push_streaming = true;
  options.stream_scheduler.codec.progressive_base_step = 8.0;
  server::SessionManager manager(&store, &clock, shared, options);
  server::BrowserSession* session = manager.GetOrCreate("u1");
  auto server = manager.ServerFor("u1");
  ASSERT_TRUE(server.ok());
  const core::LruTileCache& region =
      (*server)->cache_manager().prefetch_cache();

  std::size_t checked = 0;
  auto check_region = [&] {
    for (const tiles::TileKey& key : region.KeysByRecency()) {
      tiles::TilePtr resident = region.Peek(key);
      auto truth = store.Fetch(key);
      ASSERT_NE(resident, nullptr);
      ASSERT_TRUE(truth.ok());
      ASSERT_EQ(CellBits(*resident), CellBits(**truth))
          << "coarse tile resident after WaitForPrefetch: " << key.ToString();
      ++checked;
    }
  };
  ASSERT_TRUE(session->Open().ok());
  session->WaitForPrefetch();
  check_region();
  for (core::Move move : StreamMoveTape(/*seed=*/4300, /*length=*/60)) {
    if (!session->ApplyMove(move).ok()) continue;
    session->WaitForPrefetch();
    check_region();
  }
  EXPECT_GT(checked, 0u);
  auto counters = (*server)->push_stream()->counters();
  EXPECT_GT(counters.base_delivered, 0u);  // the bases really were coarse
}

// ---------------------------------------------------------------------------
// Teardown regression, streaming edition: destroying the SessionManager
// while merged fills are still in flight AND the push channel holds queued
// chunks must be clean — the manager shuts the fetch queue down first,
// then the stream, before any session (and its delivery target) dies.
// Mirrors TeardownUnderInFlightMergedFills; run under TSan in CI.

class StreamSlowStore : public storage::TileStore {
 public:
  explicit StreamSlowStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_.Fetch(key);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }

 private:
  storage::MemoryTileStore inner_;
};

TEST(StreamSchedulerStressTest, TeardownUnderInFlightStreamPushes) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kMovesPerSession = 6;

  auto pyramid = StreamTestPyramid();
  auto parts = StreamEngineParts::Make();
  server::SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 5;

  StreamSlowStore store(pyramid);
  SimClock clock;
  server::SessionManagerOptions options;
  options.executor_threads = 4;
  options.use_shared_cache = true;
  options.shared_cache.l1_bytes = 64ull << 20;
  options.single_flight = true;
  options.prefetch_scheduler.max_in_flight = 4;
  options.use_push_streaming = true;
  options.stream_scheduler.codec.progressive_base_step = 8.0;

  core::StreamSchedulerStats stream_stats;
  core::PrefetchSchedulerStats fetch_stats;
  {
    server::SessionManager manager(&store, &clock, shared, options);
    // Sessions share one tape (maximal merge overlap) and never wait for
    // their fills, so both the fetch queue and the push channel are busy
    // the moment the workloads return.
    const auto tape = StreamMoveTape(/*seed=*/6000, kMovesPerSession);
    std::vector<server::SessionManager::SessionWorkload> workloads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      workloads.push_back({"user" + std::to_string(s),
                           [&tape](server::BrowserSession* session) {
                             FC_RETURN_IF_ERROR(session->Open().status());
                             for (core::Move move : tape) {
                               auto served = session->ApplyMove(move);
                               if (!served.ok() &&
                                   !served.status().IsInvalidArgument()) {
                                 return served.status();
                               }
                             }
                             return Status::OK();
                           }});
    }
    ASSERT_TRUE(manager.RunSessions(std::move(workloads), 4).ok());
    ASSERT_NE(manager.prefetch_scheduler(), nullptr);
    ASSERT_NE(manager.stream_scheduler(), nullptr);
    fetch_stats = manager.prefetch_scheduler()->Stats();
    stream_stats = manager.stream_scheduler()->Stats();
    // The manager dies here with fills typically still in flight and
    // chunks still queued; shutdown order must retire both cleanly.
  }

  EXPECT_GT(fetch_stats.predictions_published, 0u);
  // Push-side accounting stays consistent mid-flight.
  EXPECT_EQ(stream_stats.chunks_pushed,
            stream_stats.base_chunks_pushed + stream_stats.exact_chunks_pushed);
  EXPECT_LE(stream_stats.first_usable_pushes, stream_stats.tiles_submitted);
}

}  // namespace
}  // namespace fc
