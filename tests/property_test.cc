// Property-based tests: parameterized sweeps over randomized inputs that
// check invariants rather than point values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/move.h"
#include "core/prediction_engine.h"
#include "core/recommender.h"
#include "core/roi_tracker.h"
#include "core/shared_tile_cache.h"
#include "core/tile_cache.h"
#include "markov/ngram_model.h"
#include "sim/modis_dataset.h"
#include "storage/tile_codec.h"
#include "tiles/tile_key.h"
#include "vision/histogram.h"
#include "vision/raster.h"

namespace fc {
namespace {

// ---------------------------------------------------------------------------
// Pyramid geometry properties across many specs

struct SpecParams {
  int levels;
  std::int64_t tile;
  std::int64_t base_w;
  std::int64_t base_h;
};

class PyramidPropertyTest : public ::testing::TestWithParam<SpecParams> {
 protected:
  tiles::PyramidSpec Spec() const {
    tiles::PyramidSpec spec;
    spec.num_levels = GetParam().levels;
    spec.tile_width = GetParam().tile;
    spec.tile_height = GetParam().tile;
    spec.base_width = GetParam().base_w;
    spec.base_height = GetParam().base_h;
    return spec;
  }
};

TEST_P(PyramidPropertyTest, TileCountsConsistent) {
  auto spec = Spec();
  ASSERT_TRUE(spec.Validate().ok());
  EXPECT_EQ(spec.AllKeys().size(), static_cast<std::size_t>(spec.TotalTiles()));
  for (int l = 0; l < spec.num_levels; ++l) {
    EXPECT_EQ(spec.KeysAtLevel(l).size(),
              static_cast<std::size_t>(spec.TilesX(l) * spec.TilesY(l)));
  }
}

TEST_P(PyramidPropertyTest, EveryChildMapsToItsParent) {
  auto spec = Spec();
  for (int l = 1; l < spec.num_levels; ++l) {
    for (const auto& key : spec.KeysAtLevel(l)) {
      auto parent = key.Parent();
      EXPECT_TRUE(spec.Valid(parent)) << key.ToString();
      EXPECT_EQ(parent.Child(key.QuadrantInParent()), key);
    }
  }
}

TEST_P(PyramidPropertyTest, MovesAreInvertible) {
  auto spec = Spec();
  for (const auto& key : spec.AllKeys()) {
    for (core::Move m : core::ValidMoves(key, spec)) {
      auto to = core::ApplyMove(key, m, spec);
      ASSERT_TRUE(to.has_value());
      EXPECT_TRUE(spec.Valid(*to));
      // Every move has an inverse move leading back.
      auto back = core::MoveBetween(*to, key);
      EXPECT_TRUE(back.has_value())
          << key.ToString() << " -> " << to->ToString();
    }
  }
}

TEST_P(PyramidPropertyTest, CandidatesAreExactlyOneMoveAway) {
  auto spec = Spec();
  for (const auto& key : spec.AllKeys()) {
    auto candidates = core::CandidateTiles(key, spec);
    EXPECT_EQ(candidates.size(), core::ValidMoves(key, spec).size());
    std::set<tiles::TileKey> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), candidates.size());  // no duplicates
    for (const auto& c : candidates) {
      EXPECT_TRUE(core::MoveBetween(key, c).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, PyramidPropertyTest,
    ::testing::Values(SpecParams{1, 8, 8, 8}, SpecParams{3, 8, 64, 64},
                      SpecParams{4, 16, 128, 128}, SpecParams{3, 8, 50, 30},
                      SpecParams{5, 32, 512, 256}, SpecParams{2, 8, 9, 9}));

// ---------------------------------------------------------------------------
// Manhattan distance: identity, symmetry, non-negativity everywhere; the
// triangle inequality holds within a level (cross-level comparisons project
// pairwise, which is a penalty function, not a full metric — all the SB
// recommender requires).

TEST(TileDistancePropertyTest, MetricAxioms) {
  Rng rng(61);
  std::vector<tiles::TileKey> keys;
  for (int i = 0; i < 24; ++i) {
    int level = rng.UniformInt(0, 3);
    keys.push_back(tiles::TileKey{level, rng.UniformInt(0, (1 << level) - 1),
                                  rng.UniformInt(0, (1 << level) - 1)});
  }
  for (const auto& a : keys) {
    EXPECT_EQ(tiles::TileKey::ManhattanDistance(a, a), 0);
    for (const auto& b : keys) {
      auto dab = tiles::TileKey::ManhattanDistance(a, b);
      EXPECT_EQ(dab, tiles::TileKey::ManhattanDistance(b, a));  // symmetry
      EXPECT_GE(dab, 0);
      // Distinct tiles are at positive distance.
      if (!(a == b)) EXPECT_GT(dab, 0);
      for (const auto& c : keys) {
        if (a.level == b.level && b.level == c.level) {
          EXPECT_LE(tiles::TileKey::ManhattanDistance(a, c),
                    dab + tiles::TileKey::ManhattanDistance(b, c))
              << "same-level triangle inequality";
        }
      }
    }
  }
}

TEST(TileDistancePropertyTest, SameLevelMatchesGridManhattan) {
  Rng rng(62);
  for (int trial = 0; trial < 100; ++trial) {
    int level = rng.UniformInt(0, 5);
    tiles::TileKey a{level, rng.UniformInt(0, 20), rng.UniformInt(0, 20)};
    tiles::TileKey b{level, rng.UniformInt(0, 20), rng.UniformInt(0, 20)};
    EXPECT_EQ(tiles::TileKey::ManhattanDistance(a, b),
              std::abs(a.x - b.x) + std::abs(a.y - b.y));
  }
}

TEST(TileDistancePropertyTest, ParentChildAdjacency) {
  // A tile and any of its children are within 3 units (1 level + <=2 grid).
  Rng rng(63);
  for (int trial = 0; trial < 50; ++trial) {
    tiles::TileKey parent{rng.UniformInt(0, 4), rng.UniformInt(0, 10),
                          rng.UniformInt(0, 10)};
    for (int q = 0; q < 4; ++q) {
      auto child = parent.Child(q);
      auto d = tiles::TileKey::ManhattanDistance(parent, child);
      EXPECT_GE(d, 1);
      EXPECT_LE(d, 3);
    }
  }
}

// ---------------------------------------------------------------------------
// Kneser-Ney: distributions sum to 1 under random training data

class KneserNeyPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(KneserNeyPropertyTest, RandomTrainingYieldsProperDistributions) {
  auto [vocab, order] = GetParam();
  auto model = markov::NGramModel::Make(vocab, order);
  ASSERT_TRUE(model.ok());
  Rng rng(CombineSeeds(vocab, order));
  for (int t = 0; t < 5; ++t) {
    std::vector<int> seq;
    for (int i = 0; i < 80; ++i) {
      seq.push_back(static_cast<int>(rng.UniformUint32(static_cast<std::uint32_t>(vocab))));
    }
    ASSERT_TRUE(model->ObserveSequence(seq).ok());
  }
  model->Finalize();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> ctx;
    std::size_t len = rng.UniformUint32(static_cast<std::uint32_t>(order));
    for (std::size_t i = 0; i < len; ++i) {
      ctx.push_back(static_cast<int>(rng.UniformUint32(static_cast<std::uint32_t>(vocab))));
    }
    auto dist = model->Distribution(ctx);
    double sum = 0.0;
    for (double p : dist) {
      EXPECT_GT(p, 0.0);  // smoothing leaves no zero
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VocabOrders, KneserNeyPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 5, 9),
                       ::testing::Values<std::size_t>(1, 2, 4, 6)));

// ---------------------------------------------------------------------------
// Tile codec: random tiles round-trip exactly

TEST(CodecPropertyTest, RandomTilesRoundTrip) {
  Rng rng(67);
  for (int trial = 0; trial < 25; ++trial) {
    int level = rng.UniformInt(0, 8);
    auto w = static_cast<std::int64_t>(rng.UniformInt(1, 24));
    auto h = static_cast<std::int64_t>(rng.UniformInt(1, 24));
    std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::vector<std::string> names;
    for (std::size_t a = 0; a < nattr; ++a) names.push_back("attr" + std::to_string(a));
    auto tile = tiles::Tile::Make(
        tiles::TileKey{level, rng.UniformInt(0, 100), rng.UniformInt(0, 100)},
        w, h, names);
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < nattr; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 100);
    }
    auto bytes = storage::EncodeTile(*tile);
    auto back = storage::DecodeTile(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->key(), tile->key());
    EXPECT_EQ(back->attr_names(), tile->attr_names());
    for (std::size_t a = 0; a < nattr; ++a) {
      EXPECT_EQ(back->AttrData(a), tile->AttrData(a));
    }
  }
}

// Every encoding round-trips randomized tiles (edge-sized, multi-attribute)
// within its documented error bound; lossless modes are bit-exact.
TEST(CodecPropertyTest, AllEncodingsRoundTripWithinTolerance) {
  Rng rng(91);
  const std::vector<storage::TileCodecOptions> codecs = {
      {storage::TileEncoding::kRawF64},
      {storage::TileEncoding::kFloat32},
      {storage::TileEncoding::kDeltaVarint, 1e-6},
      {storage::TileEncoding::kDeltaVarint, 1e-2},
  };
  for (const auto& options : codecs) {
    storage::TileCodec codec(options);
    for (int trial = 0; trial < 20; ++trial) {
      // Dimension 1 exercises the degenerate edge-tile shape.
      auto w = static_cast<std::int64_t>(rng.UniformInt(1, 24));
      auto h = static_cast<std::int64_t>(rng.UniformInt(1, 24));
      std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 5));
      std::vector<std::string> names;
      for (std::size_t a = 0; a < nattr; ++a) {
        names.push_back("attr" + std::to_string(a));
      }
      auto tile = tiles::Tile::Make(
          tiles::TileKey{rng.UniformInt(0, 8), rng.UniformInt(0, 100),
                         rng.UniformInt(0, 100)},
          w, h, names);
      ASSERT_TRUE(tile.ok());
      for (std::size_t a = 0; a < nattr; ++a) {
        for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 10);
      }
      auto bytes = codec.Encode(*tile);
      auto peeked = storage::TileCodec::PeekEncoding(bytes);
      ASSERT_TRUE(peeked.ok());
      EXPECT_EQ(*peeked, options.encoding);
      auto back = storage::TileCodec::Decode(bytes);
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_EQ(back->key(), tile->key());
      EXPECT_EQ(back->attr_names(), tile->attr_names());
      for (std::size_t a = 0; a < nattr; ++a) {
        const auto& original = tile->AttrData(a);
        const auto& decoded = back->AttrData(a);
        ASSERT_EQ(decoded.size(), original.size());
        for (std::size_t i = 0; i < original.size(); ++i) {
          switch (options.encoding) {
            case storage::TileEncoding::kRawF64:
              EXPECT_EQ(decoded[i], original[i]);
              break;
            case storage::TileEncoding::kFloat32:
              // Exactly one double->float->double rounding.
              EXPECT_EQ(decoded[i],
                        static_cast<double>(static_cast<float>(original[i])));
              break;
            case storage::TileEncoding::kDeltaVarint:
              // Quantization lattice: half a step, plus fp slack from the
              // integer * step reconstruction.
              EXPECT_NEAR(decoded[i], original[i],
                          codec.MaxAbsError() * (1.0 + 1e-9) + 1e-12);
              break;
          }
        }
      }
    }
  }
}

// Non-finite cells: lossless encodings preserve them bit-exactly; the
// quantized encoding saturates infinities and maps NaN to 0 (documented —
// llround on NaN would otherwise be undefined behavior).
TEST(CodecPropertyTest, NonFiniteValuesHaveDefinedBehavior) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 0, 0, nan);
  tile->Set(0, 1, 0, inf);
  tile->Set(0, 0, 1, -inf);
  tile->Set(0, 1, 1, 1.5);

  auto raw = storage::TileCodec({storage::TileEncoding::kRawF64}).Encode(*tile);
  auto back = storage::TileCodec::Decode(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::isnan(back->At(0, 0, 0)));
  EXPECT_EQ(back->At(0, 1, 0), inf);

  const double step = 0.5;
  auto quantized =
      storage::TileCodec({storage::TileEncoding::kDeltaVarint, step}).Encode(*tile);
  back = storage::TileCodec::Decode(quantized);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->At(0, 0, 0), 0.0);             // NaN -> 0
  EXPECT_TRUE(std::isfinite(back->At(0, 1, 0)));  // Inf saturates
  EXPECT_GT(back->At(0, 1, 0), 1e18);
  EXPECT_LT(back->At(0, 0, 1), -1e18);
  EXPECT_NEAR(back->At(0, 1, 1), 1.5, step / 2 + 1e-9);

  // kFloat32: NaN/Inf pass through; finite values beyond float range
  // saturate at +/-FLT_MAX instead of hitting the narrowing-cast UB.
  tile->Set(0, 1, 1, 1e300);
  auto narrowed =
      storage::TileCodec({storage::TileEncoding::kFloat32}).Encode(*tile);
  back = storage::TileCodec::Decode(narrowed);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::isnan(back->At(0, 0, 0)));
  EXPECT_EQ(back->At(0, 1, 0), inf);
  EXPECT_EQ(back->At(0, 0, 1), -inf);
  EXPECT_EQ(back->At(0, 1, 1),
            static_cast<double>(std::numeric_limits<float>::max()));
}

// Consecutive cells saturating at opposite lattice bounds produce a delta
// of 2^63 — representable only via wrapping arithmetic. The round trip
// must be exact (both cells land on the saturation bound), with no UB.
TEST(CodecPropertyTest, OppositeSaturationDeltasRoundTrip) {
  const double step = 1e-4;
  auto tile = tiles::Tile::Make({0, 0, 0}, 3, 1, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 0, 0, 1e18);   // saturates at +2^62 quanta
  tile->Set(0, 1, 0, -1e18);  // saturates at -2^62 quanta
  tile->Set(0, 2, 0, 1e18);
  auto bytes =
      storage::TileCodec({storage::TileEncoding::kDeltaVarint, step}).Encode(*tile);
  auto back = storage::TileCodec::Decode(bytes);
  ASSERT_TRUE(back.ok());
  const double bound = 4.611686018427387904e18 * step;  // 2^62 * step
  EXPECT_DOUBLE_EQ(back->At(0, 0, 0), bound);
  EXPECT_DOUBLE_EQ(back->At(0, 1, 0), -bound);
  EXPECT_DOUBLE_EQ(back->At(0, 2, 0), bound);
}

// An old blob — format v1 (no trailing checksum) or v2 (FNV-1a checksum)
// — must fail with a version error, not a misleading checksum-corruption
// message.
TEST(CodecPropertyTest, UnsupportedVersionReportedBeforeChecksum) {
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"v"});
  ASSERT_TRUE(tile.ok());
  for (char version : {1, 2}) {
    auto bytes = storage::EncodeTile(*tile);
    bytes[4] = version;  // u32 version field follows the 4-byte magic
    auto status = storage::TileCodec::Decode(bytes).status();
    EXPECT_TRUE(status.IsCorruption());
    EXPECT_NE(status.message().find("version"), std::string::npos) << status;
  }
}

// A tile cannot exist with zero attributes, so no encoding needs to
// represent one — the constructor is the guard.
TEST(CodecPropertyTest, ZeroAttributeTilesAreUnrepresentable) {
  EXPECT_TRUE(
      tiles::Tile::Make({0, 0, 0}, 2, 2, {}).status().IsInvalidArgument());
}

// Any single flipped byte anywhere in the blob must be rejected: structural
// checks catch header damage, the checksum catches payload damage.
TEST(CodecPropertyTest, ChecksumRejectsFlippedBytesEverywhere) {
  Rng rng(93);
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    storage::TileCodec codec({encoding, 1e-4});
    auto tile = tiles::Tile::Make({3, 2, 1}, 6, 5, {"a", "b"});
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 1);
    }
    auto bytes = codec.Encode(*tile);
    ASSERT_TRUE(storage::TileCodec::Decode(bytes).ok());
    for (int trial = 0; trial < 50; ++trial) {
      auto corrupted = bytes;
      std::size_t pos = rng.UniformUint32(static_cast<std::uint32_t>(bytes.size()));
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 + rng.UniformUint32(255)));
      EXPECT_TRUE(storage::TileCodec::Decode(corrupted).status().IsCorruption())
          << storage::TileEncodingName(encoding) << " byte " << pos;
    }
    // Truncation and trailing garbage are likewise rejected.
    EXPECT_TRUE(storage::TileCodec::Decode(bytes.substr(0, bytes.size() / 2))
                    .status()
                    .IsCorruption());
    EXPECT_TRUE(storage::TileCodec::Decode(bytes + "x").status().IsCorruption());
  }
}

namespace {

// Offsets of the header dimension fields in a format-v3 blob: magic (4) |
// version (4) | encoding (1) | level (4) | x (8) | y (8) | width | height.
constexpr std::size_t kWidthOffset = 29;
constexpr std::size_t kHeightOffset = kWidthOffset + sizeof(std::int64_t);

// `chunk` (a blob or refinement of at least 8 bytes) with its trailing
// checksum recomputed over whatever now precedes it, so damage elsewhere
// reaches the parser instead of stopping at the checksum.
std::string Resealed(std::string chunk) {
  const std::size_t body_len = chunk.size() - sizeof(std::uint64_t);
  const std::uint64_t sum = storage::BlobChecksum(chunk.data(), body_len);
  std::memcpy(&chunk[body_len], &sum, sizeof(sum));
  return chunk;
}

// `blob` with its header dimensions replaced and the checksum recomputed,
// so only the dimension checks can reject it.
std::string WithDims(std::string blob, std::int64_t width,
                     std::int64_t height) {
  std::memcpy(&blob[kWidthOffset], &width, sizeof(width));
  std::memcpy(&blob[kHeightOffset], &height, sizeof(height));
  return Resealed(std::move(blob));
}

}  // namespace

// A checksummed blob whose header claims more cells than its payload holds
// is Corruption, never an allocation sized from the header (at 2^31 x 2^31
// that allocation throws std::length_error; at 2^32 x 2^32 width * height
// overflows). Checked for every encoding, both decoded alone and as the
// base a refinement is reassembled onto.
TEST(CodecPropertyTest, HostileHeaderDimsAreCorruption) {
  Rng rng(107);
  std::vector<std::pair<std::int64_t, std::int64_t>> dims = {
      {std::int64_t{1} << 31, std::int64_t{1} << 31},
      {std::int64_t{1} << 32, std::int64_t{1} << 32},
      {std::int64_t{1} << 62, 2},
      {1, std::numeric_limits<std::int64_t>::max()},
      {3, 2},  // one row more than the 2 x 2 payload backs
  };
  for (int trial = 0; trial < 20; ++trial) {
    const int width_log = rng.UniformInt(0, 62);
    const int height_log = rng.UniformInt(std::max(0, 16 - width_log), 62);
    dims.emplace_back(
        (std::int64_t{1} << width_log) + rng.UniformInt(0, 3),
        (std::int64_t{1} << height_log) + rng.UniformInt(0, 3));
  }
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    storage::TileCodec codec({encoding, 1e-4, 0.5});
    auto tile = tiles::Tile::Make({2, 1, 1}, 2, 2, {"a", "b"});
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 10);
    }
    const std::string blob = codec.Encode(*tile);
    const auto pair = codec.EncodeProgressive(*tile);
    ASSERT_TRUE(storage::TileCodec::Decode(WithDims(blob, 2, 2)).ok());
    ASSERT_TRUE(storage::TileCodec::Reassemble(WithDims(pair.base, 2, 2),
                                               pair.refinement)
                    .ok());
    for (const auto& [width, height] : dims) {
      EXPECT_TRUE(storage::TileCodec::Decode(WithDims(blob, width, height))
                      .status()
                      .IsCorruption())
          << storage::TileEncodingName(encoding) << " " << width << " x "
          << height;
      EXPECT_TRUE(storage::TileCodec::Reassemble(
                      WithDims(pair.base, width, height), pair.refinement)
                      .status()
                      .IsCorruption())
          << storage::TileEncodingName(encoding) << " base " << width
          << " x " << height;
    }
  }
}

// ---------------------------------------------------------------------------
// Progressive two-chunk encoding: base decodes alone within its fidelity
// bound; base + refinement reassembles the exact payload bit-identically.

namespace {

// Per-cell IEEE-754 bit patterns — the reassembly contract is bit
// identity, and operator== would miss it for NaN payloads.
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

}  // namespace

// For every encoding and base fidelity: Reassemble(base, refinement) is
// bit-identical to Decode(Encode(tile)), Decode(base) alone is a usable
// lossy tile within progressive_base_step / 2 of the exact payload, and
// the base never costs more bytes than the all-or-nothing blob.
TEST(CodecPropertyTest, ProgressivePairReassemblesBitIdentically) {
  Rng rng(101);
  std::vector<storage::TileCodecOptions> codecs;
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    for (double base_step : {0.25, 4.0}) {
      storage::TileCodecOptions options;
      options.encoding = encoding;
      options.quant_step = 1e-6;
      options.progressive_base_step = base_step;
      codecs.push_back(options);
    }
  }
  for (const auto& options : codecs) {
    storage::TileCodec codec(options);
    for (int trial = 0; trial < 15; ++trial) {
      auto w = static_cast<std::int64_t>(rng.UniformInt(1, 16));
      auto h = static_cast<std::int64_t>(rng.UniformInt(1, 16));
      std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 3));
      std::vector<std::string> names;
      for (std::size_t a = 0; a < nattr; ++a) {
        names.push_back("attr" + std::to_string(a));
      }
      auto tile = tiles::Tile::Make(
          tiles::TileKey{rng.UniformInt(0, 8), rng.UniformInt(0, 100),
                         rng.UniformInt(0, 100)},
          w, h, names);
      ASSERT_TRUE(tile.ok());
      for (std::size_t a = 0; a < nattr; ++a) {
        for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 50);
      }

      auto full = codec.Encode(*tile);
      auto exact = storage::TileCodec::Decode(full);
      ASSERT_TRUE(exact.ok());

      auto pair = codec.EncodeProgressive(*tile);
      // The usable chunk never costs more than the all-or-nothing blob
      // (the stream scheduler's first-usable guarantee leans on this).
      EXPECT_LE(pair.base.size(), full.size());

      // Base alone: a self-describing lossy tile within its fidelity bound.
      auto coarse = storage::TileCodec::Decode(pair.base);
      ASSERT_TRUE(coarse.ok()) << coarse.status();
      EXPECT_EQ(coarse->key(), tile->key());
      EXPECT_EQ(coarse->attr_names(), tile->attr_names());
      const double bound =
          options.progressive_base_step / 2.0 * (1.0 + 1e-9) + 1e-12;
      for (std::size_t a = 0; a < nattr; ++a) {
        const auto& exact_vals = exact->AttrData(a);
        const auto& coarse_vals = coarse->AttrData(a);
        ASSERT_EQ(coarse_vals.size(), exact_vals.size());
        for (std::size_t i = 0; i < exact_vals.size(); ++i) {
          EXPECT_NEAR(coarse_vals[i], exact_vals[i], bound);
        }
      }

      // Reassembly: bit-identical to the all-or-nothing decode.
      auto rebuilt = storage::TileCodec::Reassemble(pair.base, pair.refinement);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(rebuilt->key(), exact->key());
      EXPECT_EQ(rebuilt->attr_names(), exact->attr_names());
      EXPECT_EQ(CellBits(*rebuilt), CellBits(*exact));
    }
  }
}

// Non-finite payloads survive the bit-domain residuals exactly: NaN, Inf,
// and huge values reassemble to the same bit pattern the all-or-nothing
// decode produces for each encoding.
TEST(CodecPropertyTest, ProgressiveNonFinitePayloadsReassembleExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    auto tile = tiles::Tile::Make({1, 2, 3}, 2, 2, {"v"});
    ASSERT_TRUE(tile.ok());
    tile->Set(0, 0, 0, nan);
    tile->Set(0, 1, 0, inf);
    tile->Set(0, 0, 1, -1e300);
    tile->Set(0, 1, 1, 2.75);
    storage::TileCodec codec({encoding, 1e-4, 1.0});
    auto exact = storage::TileCodec::Decode(codec.Encode(*tile));
    ASSERT_TRUE(exact.ok());
    auto pair = codec.EncodeProgressive(*tile);
    auto rebuilt = storage::TileCodec::Reassemble(pair.base, pair.refinement);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(CellBits(*rebuilt), CellBits(*exact))
        << storage::TileEncodingName(encoding);
  }
}

// Each chunk rejects corruption independently: a flipped byte anywhere in
// the base fails both the base-only decode and the reassembly; a flipped
// byte anywhere in the refinement fails the reassembly while the intact
// base still decodes fine. A refinement bound to a different tile's base
// fails the pair checksum.
TEST(CodecPropertyTest, ProgressiveChunksRejectCorruptionIndependently) {
  Rng rng(103);
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    storage::TileCodec codec({encoding, 1e-4, 0.5});
    auto tile = tiles::Tile::Make({2, 4, 6}, 6, 5, {"a", "b"});
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 3);
    }
    auto pair = codec.EncodeProgressive(*tile);
    ASSERT_FALSE(pair.refinement.empty());
    ASSERT_TRUE(storage::TileCodec::Reassemble(pair.base, pair.refinement).ok());

    for (int trial = 0; trial < 40; ++trial) {
      auto corrupted = pair.base;
      std::size_t pos =
          rng.UniformUint32(static_cast<std::uint32_t>(corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 + rng.UniformUint32(255)));
      EXPECT_TRUE(storage::TileCodec::Decode(corrupted).status().IsCorruption())
          << storage::TileEncodingName(encoding) << " base byte " << pos;
      EXPECT_TRUE(storage::TileCodec::Reassemble(corrupted, pair.refinement)
                      .status()
                      .IsCorruption())
          << storage::TileEncodingName(encoding) << " base byte " << pos;
    }
    for (int trial = 0; trial < 40; ++trial) {
      auto corrupted = pair.refinement;
      std::size_t pos =
          rng.UniformUint32(static_cast<std::uint32_t>(corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 + rng.UniformUint32(255)));
      EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, corrupted)
                      .status()
                      .IsCorruption())
          << storage::TileEncodingName(encoding) << " refinement byte " << pos;
      // The intact base is unaffected by refinement damage.
      EXPECT_TRUE(storage::TileCodec::Decode(pair.base).ok());
    }
    // Truncated or padded refinements are rejected, not misapplied.
    EXPECT_TRUE(storage::TileCodec::Reassemble(
                    pair.base, pair.refinement.substr(0, pair.refinement.size() / 2))
                    .status()
                    .IsCorruption());
    EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, pair.refinement + "x")
                    .status()
                    .IsCorruption());

    // A refinement for a DIFFERENT tile's base: the bound checksum catches
    // the mismatched pair even though both chunks are individually intact.
    auto other = tiles::Tile::Make({2, 4, 7}, 6, 5, {"a", "b"});
    ASSERT_TRUE(other.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : other->MutableAttrData(a)) v = rng.Gaussian(0, 3);
    }
    auto other_pair = codec.EncodeProgressive(*other);
    ASSERT_FALSE(other_pair.refinement.empty());
    EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, other_pair.refinement)
                    .status()
                    .IsCorruption())
        << storage::TileEncodingName(encoding);
  }
}

// Degenerate tiles whose coarse base would not undercut the exact blob
// ship the exact blob AS the base: one chunk, empty refinement, and
// Reassemble accepts the pair as-is.
TEST(CodecPropertyTest, ProgressiveDegenerateTileShipsOneChunk) {
  // A 1x1 raw-f64 tile: header dwarfs payload, so the quantized base
  // cannot beat the full blob.
  auto tile = tiles::Tile::Make({0, 0, 0}, 1, 1, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 0, 0, 3.25);
  storage::TileCodec codec({storage::TileEncoding::kRawF64, 1e-4, 1.0});
  auto pair = codec.EncodeProgressive(*tile);
  EXPECT_TRUE(pair.refinement.empty());
  EXPECT_EQ(pair.base, codec.Encode(*tile));
  auto rebuilt = storage::TileCodec::Reassemble(pair.base, pair.refinement);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->At(0, 0, 0), 3.25);
}

// ---------------------------------------------------------------------------
// Hostile input: the decoders take any byte string and answer with a tile
// or a Corruption status, never a crash or undefined behavior (the
// ASan+UBSan job runs these). Damage is resealed with a fresh checksum
// where noted, so it reaches the parser instead of stopping at the sum.

namespace {

const storage::TileEncoding kAllEncodings[] = {
    storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
    storage::TileEncoding::kDeltaVarint};

tiles::Tile RandomTile(Rng& rng, const tiles::TileKey& key, std::int64_t width,
                       std::int64_t height, double stddev) {
  auto tile = tiles::Tile::Make(key, width, height, {"a", "b"});
  FC_CHECK(tile.ok());
  for (std::size_t a = 0; a < 2; ++a) {
    for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, stddev);
  }
  return std::move(tile).value();
}

std::string RandomBytes(Rng& rng, std::size_t len) {
  std::string bytes(len, '\0');
  for (auto& c : bytes) c = static_cast<char>(rng.NextUint32());
  return bytes;
}

// A tile, or Corruption — no other status.
::testing::AssertionResult TileOrCorruption(const Result<tiles::Tile>& result) {
  if (result.ok() || result.status().IsCorruption()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << result.status();
}

}  // namespace

// Random byte strings, bare or behind a valid prefix (tile magic, version
// and encoding, or refinement magic and version) and resealed, are
// Corruption both as blobs and as refinements of an intact base.
TEST(CodecPropertyTest, RandomBytesAreCorruption) {
  Rng rng(109);
  storage::TileCodec codec({storage::TileEncoding::kDeltaVarint, 1e-4, 0.5});
  const auto pair = codec.EncodeProgressive(RandomTile(rng, {2, 1, 3}, 6, 5, 3));
  ASSERT_FALSE(pair.refinement.empty());
  for (int trial = 0; trial < 600; ++trial) {
    // Non-empty: an empty refinement is the valid "base is exact" marker.
    std::string bytes =
        RandomBytes(rng, static_cast<std::size_t>(rng.UniformInt(1, 300)));
    if (trial % 3 != 0 && bytes.size() >= 17) {
      const bool tile_blob = trial % 3 == 1;
      const std::uint32_t version = tile_blob ? 3 : 2;
      std::memcpy(&bytes[0], tile_blob ? "FCTL" : "FCTR", 4);
      std::memcpy(&bytes[4], &version, sizeof(version));
      bytes[8] = static_cast<char>(rng.UniformInt(0, 2));
      bytes = Resealed(std::move(bytes));
    }
    EXPECT_TRUE(storage::TileCodec::Decode(bytes).status().IsCorruption())
        << "trial " << trial;
    EXPECT_TRUE(storage::TileCodec::Reassemble(bytes, pair.refinement)
                    .status()
                    .IsCorruption())
        << "trial " << trial;
    EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, bytes)
                    .status()
                    .IsCorruption())
        << "trial " << trial;
  }
}

// Every strict prefix of a blob or refinement is Corruption, as cut and
// with the checksum recomputed over the shortened body.
TEST(CodecPropertyTest, TruncatedChunksAreCorruption) {
  Rng rng(113);
  for (auto encoding : kAllEncodings) {
    storage::TileCodec codec({encoding, 1e-4, 0.5});
    const tiles::Tile tile = RandomTile(rng, {3, 2, 1}, 5, 4, 3);
    const std::string blob = codec.Encode(tile);
    const auto pair = codec.EncodeProgressive(tile);
    ASSERT_FALSE(pair.refinement.empty());
    for (std::size_t len = 0; len < blob.size(); ++len) {
      const std::string cut = blob.substr(0, len);
      EXPECT_TRUE(storage::TileCodec::Decode(cut).status().IsCorruption())
          << storage::TileEncodingName(encoding) << " length " << len;
      if (len >= sizeof(std::uint64_t)) {
        EXPECT_TRUE(
            storage::TileCodec::Decode(Resealed(cut)).status().IsCorruption())
            << storage::TileEncodingName(encoding) << " resealed " << len;
      }
    }
    const std::string& ref = pair.refinement;
    for (std::size_t len = 0; len < ref.size(); ++len) {
      const std::string cut = ref.substr(0, len);
      // An empty refinement means "the base is exact", so it is accepted.
      if (len > 0) {
        EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, cut)
                        .status()
                        .IsCorruption())
            << storage::TileEncodingName(encoding) << " refinement " << len;
      }
      if (len >= sizeof(std::uint64_t)) {
        EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, Resealed(cut))
                        .status()
                        .IsCorruption())
            << storage::TileEncodingName(encoding) << " resealed refinement "
            << len;
      }
    }
  }
}

// Flipped bits behind a recomputed checksum reach the parser, whose answer
// is a tile (a flip inside a cell value can decode to a different,
// well-formed tile) or Corruption, nothing else. A resealed base changes
// its checksum, so the refinement bound to the original base must then be
// rejected.
TEST(CodecPropertyTest, ResealedBitFlipsDecodeOrAreCorruption) {
  Rng rng(127);
  for (auto encoding : kAllEncodings) {
    storage::TileCodec codec({encoding, 1e-4, 0.5});
    const tiles::Tile tile = RandomTile(rng, {4, 5, 6}, 6, 5, 3);
    const std::string blob = codec.Encode(tile);
    const auto pair = codec.EncodeProgressive(tile);
    ASSERT_FALSE(pair.refinement.empty());
    auto flipped = [&rng](std::string chunk) {
      const int flips = rng.UniformInt(1, 4);
      const auto body =
          static_cast<std::uint32_t>(chunk.size() - sizeof(std::uint64_t));
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng.UniformUint32(body);
        chunk[pos] = static_cast<char>(chunk[pos] ^ (1 << rng.UniformInt(0, 7)));
      }
      return Resealed(std::move(chunk));
    };
    int rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const auto decoded = storage::TileCodec::Decode(flipped(blob));
      EXPECT_TRUE(TileOrCorruption(decoded))
          << storage::TileEncodingName(encoding) << " trial " << trial;
      if (!decoded.ok()) ++rejected;

      const std::string base = flipped(pair.base);
      if (base != pair.base) {
        EXPECT_TRUE(storage::TileCodec::Reassemble(base, pair.refinement)
                        .status()
                        .IsCorruption())
            << storage::TileEncodingName(encoding) << " base trial " << trial;
      }
      EXPECT_TRUE(TileOrCorruption(storage::TileCodec::Reassemble(
          pair.base, flipped(pair.refinement))))
          << storage::TileEncodingName(encoding) << " refinement trial "
          << trial;
    }
    // The header and the length fields are hit often enough that the
    // parser, not just the checksum, does the rejecting.
    EXPECT_GT(rejected, 0) << storage::TileEncodingName(encoding);
  }
}

// The delta-varint parse errors keep their messages: an over-10-byte
// varint is "overlong", a varint cut off by the end of the blob is
// "truncated", and an attribute whose varints end before or after its
// length prefix says is a "length mismatch".
TEST(CodecPropertyTest, DeltaVarintParseErrorsKeepTheirMessages) {
  storage::TileCodec codec({storage::TileEncoding::kDeltaVarint, 1.0});
  // One 1x1 cell: the payload is a u64 length prefix and one varint.
  auto with_payload = [&codec](std::int64_t x, const std::string& payload) {
    auto tile = tiles::Tile::Make({0, x, 0}, 1, 1, {"v"});
    FC_CHECK(tile.ok());
    const std::string blob = codec.Encode(*tile);
    const std::size_t header = blob.size() - sizeof(std::uint64_t) -
                               sizeof(std::uint64_t) - 1;
    return Resealed(blob.substr(0, header) + payload +
                    std::string(sizeof(std::uint64_t), '\0'));
  };
  auto prefixed = [](std::uint64_t len, const std::string& varints) {
    std::string out(sizeof(len), '\0');
    std::memcpy(out.data(), &len, sizeof(len));
    return out + varints;
  };
  auto message = [](const std::string& blob) {
    return std::string(storage::TileCodec::Decode(blob).status().message());
  };
  ASSERT_TRUE(storage::TileCodec::Decode(with_payload(0, prefixed(1, "\x05")))
                  .ok());

  EXPECT_NE(message(with_payload(
                0, prefixed(11, std::string(10, '\x80') + '\x00'))).find(
                "varint overlong"),
            std::string::npos);
  EXPECT_NE(message(with_payload(0, prefixed(2, "\x05")))
                .find("delta-varint attribute length mismatch"),
            std::string::npos);
  EXPECT_NE(message(with_payload(0, prefixed(0, "\x05")))
                .find("delta-varint attribute length mismatch"),
            std::string::npos);
  // A varint still running at the end of the blob reads into the trailing
  // checksum; pick a key whose checksum bytes all carry the continuation
  // bit, so the varint runs off the end.
  bool found = false;
  for (std::int64_t x = 0; x < 100000 && !found; ++x) {
    const std::string blob = with_payload(x, prefixed(1, "\x80"));
    const std::string sum = blob.substr(blob.size() - sizeof(std::uint64_t));
    if (std::all_of(sum.begin(), sum.end(),
                    [](char c) { return (c & 0x80) != 0; })) {
      found = true;
      EXPECT_NE(message(blob).find("varint truncated"), std::string::npos)
          << message(blob);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Bit identity of the codec kernels: Encode's bytes before the checksum
// equal a reference encoder's that uses std::llround and writes varints a
// byte at a time, for random tiles and for the quantizer's edge cells.

namespace {

template <typename T>
void RefAppend(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void RefAppendVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

std::int64_t RefQuantize(double v, double step) {
  if (std::isnan(v)) return 0;
  const double q = std::clamp(v / step, -0x1p62, 0x1p62);
  return std::llround(q);
}

float RefToFloat(double v) {
  constexpr double kMax = std::numeric_limits<float>::max();
  if (std::isfinite(v) && std::abs(v) > kMax) return v > 0 ? kMax : -kMax;
  return static_cast<float>(v);
}

// Format-v3 blob body (everything before the checksum).
std::string ReferenceBody(const tiles::Tile& tile,
                          const storage::TileCodecOptions& options) {
  std::string out = "FCTL";
  RefAppend(&out, std::uint32_t{3});
  RefAppend(&out, static_cast<std::uint8_t>(options.encoding));
  RefAppend(&out, static_cast<std::int32_t>(tile.key().level));
  RefAppend(&out, tile.key().x);
  RefAppend(&out, tile.key().y);
  RefAppend(&out, tile.width());
  RefAppend(&out, tile.height());
  RefAppend(&out, static_cast<std::uint32_t>(tile.num_attrs()));
  for (const auto& name : tile.attr_names()) {
    RefAppend(&out, static_cast<std::uint32_t>(name.size()));
    out += name;
  }
  if (options.encoding == storage::TileEncoding::kDeltaVarint) {
    RefAppend(&out, options.quant_step);
  }
  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    switch (options.encoding) {
      case storage::TileEncoding::kRawF64:
        for (double v : tile.AttrData(a)) RefAppend(&out, v);
        break;
      case storage::TileEncoding::kFloat32:
        for (double v : tile.AttrData(a)) RefAppend(&out, RefToFloat(v));
        break;
      case storage::TileEncoding::kDeltaVarint: {
        std::string attr;
        std::int64_t prev = 0;
        for (double v : tile.AttrData(a)) {
          const std::int64_t q = RefQuantize(v, options.quant_step);
          const auto delta = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(q) - static_cast<std::uint64_t>(prev));
          RefAppendVarint(&attr, (static_cast<std::uint64_t>(delta) << 1) ^
                                     static_cast<std::uint64_t>(delta >> 63));
          prev = q;
        }
        RefAppend(&out, static_cast<std::uint64_t>(attr.size()));
        out += attr;
        break;
      }
    }
  }
  return out;
}

void ExpectMatchesReference(const tiles::Tile& tile,
                            const storage::TileCodecOptions& options) {
  const std::string blob = storage::TileCodec(options).Encode(tile);
  ASSERT_GE(blob.size(), sizeof(std::uint64_t));
  const std::string body = blob.substr(0, blob.size() - sizeof(std::uint64_t));
  EXPECT_EQ(body, ReferenceBody(tile, options))
      << storage::TileEncodingName(options.encoding) << " step "
      << options.quant_step;
  std::uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + body.size(), sizeof(stored));
  EXPECT_EQ(stored, storage::BlobChecksum(body.data(), body.size()));
}

}  // namespace

TEST(CodecPropertyTest, EncodeMatchesReferenceOnRandomTiles) {
  Rng rng(131);
  for (auto encoding : kAllEncodings) {
    for (double step : {1e-4, 0.25, 3.0}) {
      for (int trial = 0; trial < 12; ++trial) {
        const auto w = static_cast<std::int64_t>(rng.UniformInt(1, 40));
        const auto h = static_cast<std::int64_t>(rng.UniformInt(1, 40));
        const double stddev = std::pow(10.0, rng.UniformInt(-3, 9));
        ExpectMatchesReference(
            RandomTile(rng, {rng.UniformInt(0, 8), trial, 7}, w, h, stddev),
            {encoding, step});
      }
    }
  }
}

TEST(CodecPropertyTest, EncodeMatchesReferenceOnQuantizerEdgeCells) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double dbl_max = std::numeric_limits<double>::max();
  for (double step : {1e-4, 0.25, 1.0, 3.0}) {
    std::vector<double> cells = {0.0,    -0.0,     nan,      -nan,   inf,
                                 -inf,   denorm,   -denorm,  1e-310, -1e-310,
                                 dbl_max, -dbl_max, std::numeric_limits<double>::min()};
    for (double k : {0.0, 1.0, 2.0, 7.0, 1000.0, 0x1p51}) {
      for (double sign : {1.0, -1.0}) {
        cells.push_back(sign * (k + 0.5) * step);  // ties
        cells.push_back(sign * (k + 0.49999999999999994) * step);
        cells.push_back(sign * std::nextafter(k + 0.5, 0.0) * step);
      }
    }
    for (double sign : {1.0, -1.0}) {
      for (double q : {0x1p62, std::nextafter(0x1p62, 0.0), 0x1p63, 0x1p70,
                       0x1p52 + 1.0, 0x1p53}) {
        cells.push_back(sign * q * step);  // lattice bounds and beyond
      }
    }
    auto tile = tiles::Tile::Make({1, 2, 3},
                                  static_cast<std::int64_t>(cells.size()), 1,
                                  {"edge"});
    ASSERT_TRUE(tile.ok());
    std::copy(cells.begin(), cells.end(), tile->MutableAttrData(0).begin());
    for (auto encoding : kAllEncodings) {
      ExpectMatchesReference(*tile, {encoding, step});
    }
  }
}

// The shared cache reuses a promoted tile's L2 blob on its next demotion
// instead of re-encoding the decoded tile. That is invisible only if
// re-encoding would give the same bytes: Encode(Decode(Encode(t))) ==
// Encode(t) under the L2 codec, on every tile of the serving benchmark's
// pyramid (512 x 512 study terrain, 5 levels, one composite day).
TEST(CodecPropertyTest, L2CodecReencodesDecodedStudyTilesByteIdentically) {
  const storage::TileCodecOptions options = core::SharedTileCacheOptions{}.codec;
  ASSERT_EQ(options.encoding, storage::TileEncoding::kDeltaVarint);
  sim::ModisDatasetOptions dataset_options = sim::DefaultStudyDataset();
  dataset_options.terrain.width = 512;
  dataset_options.terrain.height = 512;
  dataset_options.num_levels = 5;
  dataset_options.composite_days = 1;
  auto dataset = sim::ModisDatasetBuilder(dataset_options).Build();
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const auto& pyramid = *dataset->pyramid;
  const storage::TileCodec codec(options);
  std::size_t checked = 0;
  for (const auto& key : pyramid.spec().AllKeys()) {
    auto tile = pyramid.GetTile(key);
    ASSERT_TRUE(tile.ok());
    const std::string blob = codec.Encode(**tile);
    auto decoded = storage::TileCodec::Decode(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(codec.Encode(*decoded), blob) << key.ToString();
    ++checked;
  }
  EXPECT_EQ(checked, 341u);
}

// ---------------------------------------------------------------------------
// LRU cache: never exceeds capacity; most-recent survives

TEST(LruPropertyTest, ByteBudgetInvariantUnderRandomWorkload) {
  Rng rng(71);
  constexpr std::size_t kTileBytes = 2 * 2 * sizeof(double);
  for (std::size_t budget_tiles : {1u, 3u, 8u}) {
    core::LruTileCache cache(budget_tiles * kTileBytes);
    std::vector<tiles::TileKey> recent;
    for (int op = 0; op < 500; ++op) {
      tiles::TileKey key{0, rng.UniformInt(0, 15), rng.UniformInt(0, 15)};
      if (rng.Bernoulli(0.6)) {
        auto tile = tiles::Tile::Make(key, 2, 2, {"v"});
        cache.Put(key, std::make_shared<const tiles::Tile>(std::move(*tile)));
        recent.push_back(key);
      } else {
        (void)cache.Get(key);
      }
      ASSERT_LE(cache.bytes_resident(), budget_tiles * kTileBytes);
      ASSERT_LE(cache.size(), budget_tiles);
      // The most recently put key is always resident.
      if (!recent.empty()) {
        EXPECT_TRUE(cache.Contains(recent.back()));
      }
    }
  }
}

TEST(LruPropertyTest, OversizedTileHeldAlone) {
  constexpr std::size_t kTileBytes = 2 * 2 * sizeof(double);
  core::LruTileCache cache(kTileBytes / 2);  // budget below one tile
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"v"});
  cache.Put({0, 0, 0}, std::make_shared<const tiles::Tile>(std::move(*tile)));
  EXPECT_TRUE(cache.Contains({0, 0, 0}));  // admitted despite the budget
  EXPECT_EQ(cache.size(), 1u);
  auto next = tiles::Tile::Make({0, 1, 0}, 2, 2, {"v"});
  cache.Put({0, 1, 0}, std::make_shared<const tiles::Tile>(std::move(*next)));
  EXPECT_TRUE(cache.Contains({0, 1, 0}));   // newest always survives
  EXPECT_FALSE(cache.Contains({0, 0, 0}));  // over budget: oldest dropped
}

// ---------------------------------------------------------------------------
// ROI tracker: ROI only ever contains tiles that were requested

TEST(RoiPropertyTest, RoiSubsetOfRequests) {
  Rng rng(73);
  tiles::PyramidSpec spec;
  spec.num_levels = 4;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 64;
  spec.base_height = 64;

  for (int trial = 0; trial < 20; ++trial) {
    core::RoiTracker tracker;
    std::set<tiles::TileKey> requested;
    tiles::TileKey current{0, 0, 0};
    requested.insert(current);
    core::TileRequest first;
    first.tile = current;
    tracker.Update(first);
    for (int step = 0; step < 60; ++step) {
      auto moves = core::ValidMoves(current, spec);
      auto move = moves[rng.UniformUint32(static_cast<std::uint32_t>(moves.size()))];
      current = *core::ApplyMove(current, move, spec);
      requested.insert(current);
      core::TileRequest req;
      req.tile = current;
      req.move = move;
      tracker.Update(req);
      for (const auto& roi_tile : tracker.roi()) {
        EXPECT_TRUE(requested.count(roi_tile) > 0)
            << roi_tile.ToString() << " in ROI but never requested";
      }
      // Temp ROI is only collecting after a zoom-in.
      if (tracker.collecting()) {
        EXPECT_FALSE(tracker.temp_roi().empty());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Histograms: totals preserved, normalization sums to 1

TEST(HistogramPropertyTest, RandomDataInvariant) {
  Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t bins = static_cast<std::size_t>(rng.UniformInt(1, 64));
    auto h = vision::Histogram1D::Make(bins, -2.0, 2.0);
    ASSERT_TRUE(h.ok());
    std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 500));
    for (std::size_t i = 0; i < n; ++i) h->Add(rng.Gaussian(0, 2));
    EXPECT_EQ(h->total(), n);
    double count_sum = 0.0;
    for (double c : h->counts()) count_sum += c;
    EXPECT_DOUBLE_EQ(count_sum, static_cast<double>(n));
    double norm_sum = 0.0;
    for (double c : h->Normalized()) norm_sum += c;
    EXPECT_NEAR(norm_sum, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Merge: output always unique, bounded by k, and drawn from the inputs

TEST(MergePropertyTest, RandomizedMergeInvariants) {
  Rng rng(83);
  for (int trial = 0; trial < 50; ++trial) {
    auto random_list = [&](std::size_t n) {
      core::RankedTiles list;
      for (std::size_t i = 0; i < n; ++i) {
        list.push_back(tiles::TileKey{1, rng.UniformInt(0, 5), rng.UniformInt(0, 5)});
      }
      return list;
    };
    auto ab = random_list(static_cast<std::size_t>(rng.UniformInt(0, 9)));
    auto sb = random_list(static_cast<std::size_t>(rng.UniformInt(0, 9)));
    core::Allocation alloc;
    std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 9));
    alloc.ab_slots = static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(k)));
    alloc.sb_slots = k - alloc.ab_slots;
    alloc.ab_first = rng.Bernoulli(0.5);
    auto merged = core::MergeRankedLists(ab, sb, alloc, k);
    EXPECT_LE(merged.size(), k);
    std::set<tiles::TileKey> unique(merged.begin(), merged.end());
    EXPECT_EQ(unique.size(), merged.size());
    for (const auto& key : merged) {
      bool from_ab = std::find(ab.begin(), ab.end(), key) != ab.end();
      bool from_sb = std::find(sb.begin(), sb.end(), key) != sb.end();
      EXPECT_TRUE(from_ab || from_sb);
    }
  }
}

// ---------------------------------------------------------------------------
// Raster: blur/downsample keep values within the input range

TEST(RasterPropertyTest, SmoothingStaysInRange) {
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    vision::Raster img(24, 24);
    for (auto& v : img.mutable_data()) v = rng.UniformDouble(-3.0, 5.0);
    auto [lo, hi] = img.MinMax();
    for (double sigma : {0.5, 1.5, 3.0}) {
      auto blurred = vision::GaussianBlur(img, sigma);
      auto [blo, bhi] = blurred.MinMax();
      EXPECT_GE(blo, lo - 1e-9);
      EXPECT_LE(bhi, hi + 1e-9);
    }
    auto down = vision::Downsample2x(img);
    auto [dlo, dhi] = down.MinMax();
    EXPECT_GE(dlo, lo - 1e-9);
    EXPECT_LE(dhi, hi + 1e-9);
  }
}

}  // namespace
}  // namespace fc
