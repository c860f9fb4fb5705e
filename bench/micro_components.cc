// Micro-benchmarks (google-benchmark) for the component hot paths: tile
// pyramid construction, signature extraction, Markov/KN evaluation, SVM
// prediction, LRU cache operations, and the tile codec.

#include <benchmark/benchmark.h>

#include "core/tile_cache.h"
#include "markov/markov_chain.h"
#include "storage/tile_codec.h"
#include "svm/svm.h"
#include "vision/signature.h"

#include "bench_common.h"

using namespace fc;

namespace {

const sim::Study& Study() { return fc::bench::GetStudy(); }

vision::Raster SampleRaster() {
  const auto& pyramid = *Study().dataset.pyramid;
  auto key = pyramid.spec().KeysAtLevel(pyramid.spec().num_levels - 1).front();
  auto tile = pyramid.GetTile(key);
  auto raster = (*tile)->ToRaster(pyramid.signature_attr());
  return *raster;
}

void BM_SiftExtract(benchmark::State& state) {
  auto raster = SampleRaster();
  vision::SiftExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(raster));
  }
}
BENCHMARK(BM_SiftExtract);

void BM_HistogramSignature(benchmark::State& state) {
  auto raster = SampleRaster();
  vision::HistogramSignature sig(32, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.Compute(raster));
  }
}
BENCHMARK(BM_HistogramSignature);

void BM_MarkovDistribution(benchmark::State& state) {
  auto chain = markov::MarkovChain::Make(core::kNumMoves, 3);
  std::vector<std::vector<int>> traces;
  for (const auto& t : Study().traces) traces.push_back(t.MoveSymbols());
  (void)chain->Train(traces);
  std::vector<int> recent = {0, 1, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain->NextMoveDistribution(recent));
  }
}
BENCHMARK(BM_MarkovDistribution);

void PredictLoop(benchmark::State& state, const core::PhaseClassifier& classifier) {
  core::TileRequest request;
  request.tile = tiles::TileKey{3, 2, 1};
  request.move = core::Move::kZoomInNW;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Predict(request));
  }
}

// A classifier on a 400-row subsample, as the LOOCV experiments train it.
void BM_PhaseClassifierPredict(benchmark::State& state) {
  core::PhaseClassifierOptions options;
  options.max_training_rows = 400;
  auto classifier = core::PhaseClassifier::Train(Study().traces, options);
  PredictLoop(state, *classifier);
}
BENCHMARK(BM_PhaseClassifierPredict);

// The classifier that serving runs: every row of the study traces, as
// SessionManager deployments and perfbench train it.
void BM_PhaseClassifierPredictServing(benchmark::State& state) {
  auto classifier = core::PhaseClassifier::Train(Study().traces);
  PredictLoop(state, *classifier);
}
BENCHMARK(BM_PhaseClassifierPredictServing);

void BM_LruCachePutGet(benchmark::State& state) {
  const auto& pyramid = *Study().dataset.pyramid;
  auto keys = pyramid.spec().KeysAtLevel(pyramid.spec().num_levels - 1);
  core::LruTileCache cache(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& key = keys[i % keys.size()];
    auto tile = pyramid.GetTile(key);
    cache.Put(key, *tile);
    benchmark::DoNotOptimize(cache.Get(key));
    ++i;
  }
}
BENCHMARK(BM_LruCachePutGet);

// The codec on a real study tile (the deepest level's first: 32 x 32 cells
// x 4 attributes), one row per encoding and direction. kDeltaVarint uses
// the shared cache's default L2 quantization step.
tiles::TilePtr CodecTile() {
  const auto& pyramid = *Study().dataset.pyramid;
  auto key = pyramid.spec().KeysAtLevel(pyramid.spec().num_levels - 1).front();
  return *pyramid.GetTile(key);
}

void BM_TileEncode(benchmark::State& state, storage::TileEncoding encoding) {
  const auto tile = CodecTile();
  const storage::TileCodec codec({encoding, 1e-4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(*tile));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(tile->SizeBytes()));
}
BENCHMARK_CAPTURE(BM_TileEncode, raw_f64, storage::TileEncoding::kRawF64);
BENCHMARK_CAPTURE(BM_TileEncode, float32, storage::TileEncoding::kFloat32);
BENCHMARK_CAPTURE(BM_TileEncode, delta_varint,
                  storage::TileEncoding::kDeltaVarint);

void BM_TileDecode(benchmark::State& state, storage::TileEncoding encoding) {
  const auto tile = CodecTile();
  const std::string blob = storage::TileCodec({encoding, 1e-4}).Encode(*tile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::TileCodec::Decode(blob));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(tile->SizeBytes()));
}
BENCHMARK_CAPTURE(BM_TileDecode, raw_f64, storage::TileEncoding::kRawF64);
BENCHMARK_CAPTURE(BM_TileDecode, float32, storage::TileEncoding::kFloat32);
BENCHMARK_CAPTURE(BM_TileDecode, delta_varint,
                  storage::TileEncoding::kDeltaVarint);

void BM_SbRecommend(benchmark::State& state) {
  const auto& study = Study();
  const auto& pyramid = *study.dataset.pyramid;
  core::SbRecommender sb(&pyramid.metadata(), study.dataset.toolbox.get());
  core::SessionHistory history(8);
  core::TileRequest request;
  request.tile = tiles::TileKey{3, 1, 1};
  request.move = core::Move::kPanRight;
  history.Add(request);
  core::PredictionContext ctx;
  ctx.request = request;
  ctx.history = &history;
  ctx.spec = &pyramid.spec();
  ctx.roi = {tiles::TileKey{3, 1, 0}, tiles::TileKey{3, 0, 1}};
  ctx.candidates = core::CandidateTiles(request.tile, pyramid.spec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sb.Recommend(ctx));
  }
}
BENCHMARK(BM_SbRecommend);

}  // namespace

BENCHMARK_MAIN();
