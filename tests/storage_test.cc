// Unit tests for the storage layer: codec, memory/disk/simulated stores.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::storage {
namespace {

std::shared_ptr<tiles::TilePyramid> SmallPyramid() {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 32, 8}, array::Dimension{"x", 0, 32, 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < 32; ++y) {
    for (std::int64_t x = 0; x < 32; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0,
                     static_cast<double>(x * 100 + y));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = 3;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  EXPECT_TRUE(pyramid.ok());
  return *pyramid;
}

// ---------------------------------------------------------------------------
// Codec

TEST(TileCodecTest, RoundTrip) {
  auto tile = tiles::Tile::Make({2, 1, 3}, 4, 4, {"a", "b"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 2, 2, 3.25);
  tile->Set(1, 0, 3, -7.5);
  auto bytes = EncodeTile(*tile);
  auto back = DecodeTile(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->key(), (tiles::TileKey{2, 1, 3}));
  EXPECT_EQ(back->attr_names(), tile->attr_names());
  EXPECT_DOUBLE_EQ(back->At(0, 2, 2), 3.25);
  EXPECT_DOUBLE_EQ(back->At(1, 0, 3), -7.5);
}

TEST(TileCodecTest, RejectsCorruption) {
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"a"});
  ASSERT_TRUE(tile.ok());
  auto bytes = EncodeTile(*tile);
  // Truncated payload.
  EXPECT_TRUE(DecodeTile(bytes.substr(0, bytes.size() - 4)).status().IsCorruption());
  // Wrong magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_TRUE(DecodeTile(bad).status().IsCorruption());
  // Trailing garbage.
  EXPECT_TRUE(DecodeTile(bytes + "zz").status().IsCorruption());
  // Empty.
  EXPECT_TRUE(DecodeTile("").status().IsCorruption());
}

// ---------------------------------------------------------------------------
// MemoryTileStore

TEST(MemoryTileStoreTest, FetchAndCount) {
  auto pyramid = SmallPyramid();
  MemoryTileStore store(pyramid);
  EXPECT_TRUE(store.Contains({0, 0, 0}));
  EXPECT_FALSE(store.Contains({7, 0, 0}));
  auto tile = store.Fetch({2, 3, 3});
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ(store.fetch_count(), 1u);
  EXPECT_FALSE(store.Fetch({7, 0, 0}).ok());
  EXPECT_EQ(store.fetch_count(), 2u);
  // On the single-tile path, every fetch is its own backend query.
  EXPECT_EQ(store.query_count(), 2u);
}

// ---------------------------------------------------------------------------
// SimulatedDbmsStore

TEST(SimulatedDbmsStoreTest, ChargesVirtualClock) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  auto costs = array::CalibratedPaperCosts();
  costs.jitter_rel_stddev = 0.0;
  SimulatedDbmsStore store(pyramid, array::QueryCostModel(costs, 1), &clock);
  ASSERT_TRUE(store.Fetch({2, 0, 0}).ok());
  // 8x8 tile: 909 + 75 + 0.05us*64 ≈ 984 ms.
  EXPECT_NEAR(clock.NowMillis(), 984.0, 1.0);
  // The clock advances in whole microseconds; allow that rounding.
  EXPECT_NEAR(store.total_query_millis(), clock.NowMillis(), 1e-3);
  ASSERT_TRUE(store.Fetch({2, 1, 0}).ok());
  EXPECT_NEAR(clock.NowMillis(), 2 * 984.0, 2.0);
  EXPECT_EQ(store.fetch_count(), 2u);
  EXPECT_EQ(store.query_count(), 2u);  // tiles == round trips without batching
}

TEST(SimulatedDbmsStoreTest, MissingTileChargesNothing) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  SimulatedDbmsStore store(pyramid,
                           array::QueryCostModel(array::CalibratedPaperCosts(), 1),
                           &clock);
  EXPECT_FALSE(store.Fetch({9, 9, 9}).ok());
  EXPECT_EQ(clock.NowMicros(), 0);
}

// ---------------------------------------------------------------------------
// DiskTileStore

TEST(DiskTileStoreTest, SaveFetchRoundTrip) {
  auto pyramid = SmallPyramid();
  std::string dir = testing::TempDir() + "/fc_disk_store_test";
  std::filesystem::remove_all(dir);
  auto store = DiskTileStore::Open(dir, pyramid->spec());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Contains({0, 0, 0}));
  ASSERT_TRUE((*store)->SavePyramid(*pyramid).ok());
  EXPECT_TRUE((*store)->Contains({0, 0, 0}));
  auto tile = (*store)->Fetch({2, 3, 1});
  ASSERT_TRUE(tile.ok());
  auto original = pyramid->GetTile({2, 3, 1});
  ASSERT_TRUE(original.ok());
  EXPECT_EQ((*tile)->AttrData(0), (*original)->AttrData(0));
  std::filesystem::remove_all(dir);
}

TEST(DiskTileStoreTest, CompressedCodecRoundTripsWithinTolerance) {
  auto pyramid = SmallPyramid();
  std::string dir = testing::TempDir() + "/fc_disk_store_compressed";
  std::filesystem::remove_all(dir);
  const double step = 1e-3;
  auto store = DiskTileStore::Open(dir, pyramid->spec(),
                                   {TileEncoding::kDeltaVarint, step});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->SavePyramid(*pyramid).ok());
  auto tile = (*store)->Fetch({2, 3, 1});
  ASSERT_TRUE(tile.ok());
  auto original = pyramid->GetTile({2, 3, 1});
  ASSERT_TRUE(original.ok());
  for (std::int64_t y = 0; y < (*tile)->height(); ++y) {
    for (std::int64_t x = 0; x < (*tile)->width(); ++x) {
      EXPECT_NEAR((*tile)->At(0, x, y), (*original)->At(0, x, y), step / 2 + 1e-12);
    }
  }
  // The smooth test raster compresses well below raw size on disk.
  EXPECT_LT(std::filesystem::file_size((*store)->PathFor({2, 3, 1})),
            (*original)->SizeBytes());
  std::filesystem::remove_all(dir);
}

TEST(DiskTileStoreTest, FetchMissingIsNotFound) {
  std::string dir = testing::TempDir() + "/fc_disk_store_empty";
  std::filesystem::remove_all(dir);
  tiles::PyramidSpec spec;
  spec.num_levels = 1;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 8;
  spec.base_height = 8;
  auto store = DiskTileStore::Open(dir, spec);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Fetch({0, 0, 0}).status().IsNotFound());
  std::filesystem::remove_all(dir);
}

// A hostile extent.fcpk only loses the packed fast path: an index count
// no file could hold (it must not size a reservation) and a blob bound
// whose offset + length wraps past 2^64 are both rejected, Open succeeds,
// and per-tile files serve.
TEST(DiskTileStoreTest, HostilePackedIndexFallsBackToTileFiles) {
  auto pyramid = SmallPyramid();
  const std::string dir = testing::TempDir() + "/fc_disk_hostile_extent";
  // extent.fcpk: magic (4) | version (4) | count (8), then per entry
  // level (4) | x (8) | y (8) | offset (8) | length (8).
  constexpr std::size_t kCountOffset = 8;
  constexpr std::size_t kFirstOffsetField = 16 + 4 + 8 + 8;
  auto patch = [](std::string* bytes, std::size_t at, std::uint64_t value) {
    std::memcpy(&(*bytes)[at], &value, sizeof(value));
  };
  const std::vector<std::pair<std::size_t, std::uint64_t>> hostile = {
      {kCountOffset, std::uint64_t{1} << 62},
      {kFirstOffsetField, ~std::uint64_t{0} - 7},
  };
  for (const auto& [at, value] : hostile) {
    std::filesystem::remove_all(dir);
    std::string extent_path;
    {
      auto writer = DiskTileStore::Open(dir, pyramid->spec());
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->SavePyramid(*pyramid).ok());
      extent_path = (*writer)->PackedExtentPath();
    }
    std::string bytes;
    {
      std::ifstream in(extent_path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), kFirstOffsetField + sizeof(std::uint64_t));
    patch(&bytes, at, value);
    {
      std::ofstream out(extent_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    auto store = DiskTileStore::Open(dir, pyramid->spec());
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_FALSE((*store)->packed_loaded()) << "patched byte " << at;
    for (const auto& key : pyramid->spec().AllKeys()) {
      auto tile = (*store)->Fetch(key);
      ASSERT_TRUE(tile.ok()) << key.ToString() << ": " << tile.status();
      auto original = pyramid->GetTile(key);
      ASSERT_TRUE(original.ok());
      EXPECT_EQ((*tile)->AttrData(0), (*original)->AttrData(0));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fc::storage
