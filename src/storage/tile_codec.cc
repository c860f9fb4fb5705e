#include "storage/tile_codec.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace fc::storage {

namespace {

constexpr char kMagic[4] = {'F', 'C', 'T', 'L'};
constexpr std::uint32_t kVersion = 3;

constexpr char kRefinementMagic[4] = {'F', 'C', 'T', 'R'};
constexpr std::uint32_t kRefinementVersion = 2;

// Checksum constants: odd multipliers (multiplication by an odd number is
// a bijection mod 2^64) and distinct lane seeds.
constexpr std::uint64_t kLaneMul = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kFoldMul = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kLaneSeeds[4] = {
    0x243F6A8885A308D3ull, 0x13198A2E03707344ull, 0xA4093822299F31D0ull,
    0x082EFA98EC4E6C89ull};

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

std::uint64_t Rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

std::uint64_t LaneStep(std::uint64_t lane, std::uint64_t word) {
  return Rotl((lane ^ word) * kLaneMul, 31);
}

std::uint64_t Fold(std::uint64_t acc, std::uint64_t input) {
  acc = (acc ^ input) * kFoldMul;
  return acc ^ (acc >> 29);
}

void AppendRaw(std::string* out, const void* data, std::size_t len) {
  out->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendValue(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// Deltas between quanta are computed in uint64: two saturated quanta at
// opposite lattice bounds differ by 2^63, which overflows int64 (UB) but
// wraps cleanly in unsigned arithmetic — and the decode-side addition wraps
// back by the same modulus, so round trips are exact.
std::uint64_t WrappingDelta(std::int64_t q, std::int64_t prev) {
  return static_cast<std::uint64_t>(q) - static_cast<std::uint64_t>(prev);
}

std::int64_t WrappingAdd(std::int64_t prev, std::int64_t delta) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                   static_cast<std::uint64_t>(delta));
}

// Most bytes one LEB128-encoded u64 takes.
constexpr std::size_t kMaxVarintBytes = 10;

char* WriteVarint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Appends a u64 byte-length prefix and `count` varints, the i-th being
// next(i). Writes through a pointer into room for the worst case, then
// trims to the bytes written.
template <typename Next>
void AppendVarints(std::string* out, std::size_t count, Next&& next) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(std::uint64_t) + count * kMaxVarintBytes);
  char* const begin = out->data() + at + sizeof(std::uint64_t);
  char* p = begin;
  for (std::size_t i = 0; i < count; ++i) p = WriteVarint(p, next(i));
  const auto len = static_cast<std::uint64_t>(p - begin);
  std::memcpy(out->data() + at, &len, sizeof(len));
  out->resize(at + sizeof(len) + len);
}

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  /// The next `len` bytes, consumed; null (nothing consumed) when fewer
  /// remain.
  const char* Consume(std::size_t len) {
    if (len > bytes_.size() - pos_) return nullptr;
    const char* p = bytes_.data() + pos_;
    pos_ += len;
    return p;
  }

  Status ReadRaw(void* dst, std::size_t len) {
    const char* src = Consume(len);
    if (src == nullptr) return Status::Corruption("tile blob truncated");
    std::memcpy(dst, src, len);
    return Status::OK();
  }

  template <typename T>
  Result<T> ReadValue() {
    T value;
    FC_RETURN_IF_ERROR(ReadRaw(&value, sizeof(T)));
    return value;
  }

  Result<std::string> ReadString() {
    FC_ASSIGN_OR_RETURN(auto len, ReadValue<std::uint32_t>());
    if (len > 1 << 20) return Status::Corruption("unreasonable string length");
    std::string s(len, '\0');
    FC_RETURN_IF_ERROR(ReadRaw(s.data(), len));
    return s;
  }

  /// Reads `count` LEB128 varints, handing the i-th to sink(i, value).
  /// Stops at the first truncated or overlong (over 10-byte) varint.
  template <typename Sink>
  Status ReadVarints(std::size_t count, Sink&& sink) {
    const auto* const base =
        reinterpret_cast<const unsigned char*>(bytes_.data());
    const unsigned char* const end = base + bytes_.size();
    const unsigned char* p = base + pos_;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t v = 0;
      for (int shift = 0;; shift += 7) {
        if (shift >= 64) return Status::Corruption("varint overlong");
        if (p == end) return Status::Corruption("varint truncated");
        const unsigned byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (byte < 0x80) break;
      }
      sink(i, v);
    }
    pos_ = static_cast<std::size_t>(p - base);
    return Status::OK();
  }

  std::size_t pos() const { return pos_; }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

// Quantized value domain for kDeltaVarint: clamp before rounding so
// extreme values cannot overflow the int64 lattice (infinities saturate).
// NaN has no lattice point and would be undefined behavior to convert; it
// maps to 0 — kDeltaVarint is for finite rasters, use a lossless encoding
// when non-finite cells must survive.
constexpr double kMaxQuantum = 4.611686018427387904e18;  // 2^62

// std::llround(clamp(v / step)) without the libcall: the conversion
// truncates, q - t is exact (t is q's integer part, |q| <= 2^62), and the
// two comparisons round half away from zero. The rounding must stay
// branchless — cell data is noisy enough to mispredict a branch on the
// fraction; the NaN and clamp tests are all but never taken.
std::int64_t Quantize(double v, double step) {
  double q = v / step;
  q = q == q ? q : 0.0;
  q = q > kMaxQuantum ? kMaxQuantum : q;
  q = q < -kMaxQuantum ? -kMaxQuantum : q;
  const auto t = static_cast<std::int64_t>(q);
  const double frac = q - static_cast<double>(t);
  return t + (frac >= 0.5) - (frac <= -0.5);
}

// Refinement residuals live in the IEEE-754 bit domain: close doubles have
// close bit patterns (small varints), and wrapping uint64 arithmetic makes
// the round trip exact for every payload including NaN bit patterns —
// value-domain residuals could not promise that.
std::uint64_t BitsOf(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double DoubleFromBits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// Finite doubles beyond float range must saturate explicitly: the bare
// static_cast is undefined behavior for them ([conv.double]). NaN and the
// infinities are representable in float and pass through.
float ToFloatSaturating(double v) {
  if (std::isfinite(v)) {
    if (v > std::numeric_limits<float>::max()) {
      return std::numeric_limits<float>::max();
    }
    if (v < std::numeric_limits<float>::lowest()) {
      return std::numeric_limits<float>::lowest();
    }
  }
  return static_cast<float>(v);
}

void EncodePayload(const tiles::Tile& tile, const TileCodecOptions& options,
                   std::string* out) {
  switch (options.encoding) {
    case TileEncoding::kRawF64:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        const auto& data = tile.AttrData(a);
        AppendRaw(out, data.data(), data.size() * sizeof(double));
      }
      return;
    case TileEncoding::kFloat32:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        const auto& data = tile.AttrData(a);
        const std::size_t at = out->size();
        out->resize(at + data.size() * sizeof(float));
        char* p = out->data() + at;
        for (double v : data) {
          const float f = ToFloatSaturating(v);
          std::memcpy(p, &f, sizeof(f));
          p += sizeof(f);
        }
      }
      return;
    case TileEncoding::kDeltaVarint:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        const double* cells = tile.AttrData(a).data();
        const double step = options.quant_step;
        std::int64_t prev = 0;
        AppendVarints(out, tile.AttrData(a).size(), [&](std::size_t i) {
          const std::int64_t q = Quantize(cells[i], step);
          const auto delta = static_cast<std::int64_t>(WrappingDelta(q, prev));
          prev = q;
          return ZigZag(delta);
        });
      }
      return;
  }
}

Status DecodePayload(Reader* reader, TileEncoding encoding, double quant_step,
                     tiles::Tile* tile) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        auto& buf = tile->MutableAttrData(a);
        FC_RETURN_IF_ERROR(
            reader->ReadRaw(buf.data(), buf.size() * sizeof(double)));
      }
      return Status::OK();
    case TileEncoding::kFloat32:
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        auto& buf = tile->MutableAttrData(a);
        const char* src = reader->Consume(buf.size() * sizeof(float));
        if (src == nullptr) return Status::Corruption("tile blob truncated");
        for (auto& v : buf) {
          float f;
          std::memcpy(&f, src, sizeof(f));
          src += sizeof(f);
          v = static_cast<double>(f);
        }
      }
      return Status::OK();
    case TileEncoding::kDeltaVarint:
      if (!(quant_step > 0.0)) {
        return Status::Corruption("non-positive quantization step");
      }
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        FC_ASSIGN_OR_RETURN(auto attr_len, reader->ReadValue<std::uint64_t>());
        std::size_t attr_end = reader->pos() + attr_len;
        auto& buf = tile->MutableAttrData(a);
        double* cells = buf.data();
        std::int64_t prev = 0;
        FC_RETURN_IF_ERROR(reader->ReadVarints(
            buf.size(), [&](std::size_t i, std::uint64_t z) {
              prev = WrappingAdd(prev, UnZigZag(z));
              cells[i] = static_cast<double>(prev) * quant_step;
            }));
        if (reader->pos() != attr_end) {
          return Status::Corruption("delta-varint attribute length mismatch");
        }
      }
      return Status::OK();
  }
  return Status::Corruption("unknown tile encoding");
}

/// Fewest payload bytes one cell can take in `encoding` (a varint is at
/// least one byte).
std::size_t MinCellBytes(TileEncoding encoding) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      return sizeof(double);
    case TileEncoding::kFloat32:
      return sizeof(float);
    case TileEncoding::kDeltaVarint:
      return 1;
  }
  return 1;
}

/// Whether width x height x nattr cells of at least `cell_bytes` each can
/// fit in `available` bytes, without forming the (possibly overflowing)
/// product. Dimensions must be positive.
bool PayloadFits(std::int64_t width, std::int64_t height, std::uint32_t nattr,
                 std::size_t cell_bytes, std::size_t available) {
  std::uint64_t cells = available / cell_bytes;  // most cells the bytes hold
  if (static_cast<std::uint64_t>(width) > cells) return false;
  cells /= static_cast<std::uint64_t>(width);
  if (static_cast<std::uint64_t>(height) > cells) return false;
  cells /= static_cast<std::uint64_t>(height);
  return nattr <= cells;
}

/// Reads and validates magic | version | encoding. Checked before the
/// checksum so a blob of an older format version (whose checksum differs
/// or is absent) fails as "unsupported tile version", not as phantom
/// corruption.
Result<TileEncoding> ReadHeaderPrefix(Reader* reader) {
  char magic[4];
  FC_RETURN_IF_ERROR(reader->ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad tile magic");
  }
  FC_ASSIGN_OR_RETURN(auto version, reader->ReadValue<std::uint32_t>());
  if (version != kVersion) {
    return Status::Corruption("unsupported tile version");
  }
  FC_ASSIGN_OR_RETURN(auto encoding, reader->ReadValue<std::uint8_t>());
  if (encoding > static_cast<std::uint8_t>(TileEncoding::kDeltaVarint)) {
    return Status::Corruption("unknown tile encoding");
  }
  return static_cast<TileEncoding>(encoding);
}

/// Bytes of `tile`'s blob before its payload: the fixed header, the
/// attribute names and, for kDeltaVarint, the quantization step.
std::size_t HeaderBytes(const tiles::Tile& tile, TileEncoding encoding) {
  std::size_t bytes = sizeof(kMagic) + sizeof(std::uint32_t) +
                      sizeof(std::uint8_t) + sizeof(std::int32_t) +
                      4 * sizeof(std::int64_t) + sizeof(std::uint32_t);
  for (const auto& name : tile.attr_names()) {
    bytes += sizeof(std::uint32_t) + name.size();
  }
  if (encoding == TileEncoding::kDeltaVarint) bytes += sizeof(double);
  return bytes;
}

/// Most payload bytes `tile` can take in `encoding` (exact for the
/// fixed-width encodings).
std::size_t MaxPayloadBytes(const tiles::Tile& tile, TileEncoding encoding) {
  const std::size_t cells = tile.SizeBytes() / sizeof(double);
  switch (encoding) {
    case TileEncoding::kRawF64:
      return cells * sizeof(double);
    case TileEncoding::kFloat32:
      return cells * sizeof(float);
    case TileEncoding::kDeltaVarint:
      return tile.num_attrs() * sizeof(std::uint64_t) + cells * kMaxVarintBytes;
  }
  return 0;
}

}  // namespace

std::uint64_t BlobChecksum(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lanes[4] = {kLaneSeeds[0], kLaneSeeds[1], kLaneSeeds[2],
                            kLaneSeeds[3]};
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    lanes[0] = LaneStep(lanes[0], Load64(p + i));
    lanes[1] = LaneStep(lanes[1], Load64(p + i + 8));
    lanes[2] = LaneStep(lanes[2], Load64(p + i + 16));
    lanes[3] = LaneStep(lanes[3], Load64(p + i + 24));
  }
  for (int lane = 0; i + 8 <= len; i += 8, ++lane) {
    lanes[lane] = LaneStep(lanes[lane], Load64(p + i));
  }
  std::uint64_t tail = kFnvOffset;
  for (; i < len; ++i) tail = (tail ^ p[i]) * kFnvPrime;
  std::uint64_t sum = 0;
  for (std::uint64_t lane : lanes) sum = Fold(sum, lane);
  sum = Fold(sum, tail);
  return Fold(sum, static_cast<std::uint64_t>(len));
}

const char* TileEncodingName(TileEncoding encoding) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      return "raw_f64";
    case TileEncoding::kFloat32:
      return "float32";
    case TileEncoding::kDeltaVarint:
      return "delta_varint";
  }
  return "unknown";
}

TileCodec::TileCodec(TileCodecOptions options) : options_(options) {
  if (!(options_.quant_step > 0.0)) options_.quant_step = 1e-4;
  if (!(options_.progressive_base_step > 0.0)) {
    options_.progressive_base_step = 1.0;
  }
}

std::string TileCodec::Encode(const tiles::Tile& tile) const {
  std::string out;
  out.reserve(HeaderBytes(tile, options_.encoding) +
              MaxPayloadBytes(tile, options_.encoding) + sizeof(std::uint64_t));
  AppendRaw(&out, kMagic, sizeof(kMagic));
  AppendValue(&out, kVersion);
  AppendValue(&out, static_cast<std::uint8_t>(options_.encoding));
  AppendValue(&out, static_cast<std::int32_t>(tile.key().level));
  AppendValue(&out, tile.key().x);
  AppendValue(&out, tile.key().y);
  AppendValue(&out, tile.width());
  AppendValue(&out, tile.height());
  AppendValue(&out, static_cast<std::uint32_t>(tile.num_attrs()));
  for (const auto& name : tile.attr_names()) {
    AppendValue(&out, static_cast<std::uint32_t>(name.size()));
    AppendRaw(&out, name.data(), name.size());
  }
  if (options_.encoding == TileEncoding::kDeltaVarint) {
    AppendValue(&out, options_.quant_step);
  }
  EncodePayload(tile, options_, &out);
  AppendValue(&out, BlobChecksum(out.data(), out.size()));
  // kDeltaVarint reserved room for its worst case: hand back an exact-size
  // blob, so a cache tier charged blob.size() holds no hidden slack.
  out.shrink_to_fit();
  return out;
}

Result<TileEncoding> TileCodec::PeekEncoding(const std::string& bytes) {
  Reader reader(bytes);
  return ReadHeaderPrefix(&reader);
}

Result<tiles::Tile> TileCodec::Decode(const std::string& bytes) {
  Reader reader(bytes);
  FC_ASSIGN_OR_RETURN(auto encoding, ReadHeaderPrefix(&reader));

  // With the format structurally identified, verify the trailing checksum
  // before trusting the rest: it catches mid-blob corruption the field
  // checks below would misparse.
  if (bytes.size() < reader.pos() + sizeof(std::uint64_t)) {
    return Status::Corruption("tile blob truncated");
  }
  std::size_t body_len = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, bytes.data() + body_len, sizeof(stored));
  if (stored != BlobChecksum(bytes.data(), body_len)) {
    return Status::Corruption("tile checksum mismatch");
  }

  FC_ASSIGN_OR_RETURN(auto level, reader.ReadValue<std::int32_t>());
  FC_ASSIGN_OR_RETURN(auto x, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto y, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto width, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto height, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto nattr, reader.ReadValue<std::uint32_t>());
  if (width <= 0 || height <= 0 || nattr == 0 || nattr > 1024) {
    return Status::Corruption("implausible tile header");
  }
  std::vector<std::string> names;
  names.reserve(nattr);
  for (std::uint32_t i = 0; i < nattr; ++i) {
    FC_ASSIGN_OR_RETURN(auto name, reader.ReadString());
    names.push_back(std::move(name));
  }
  double quant_step = 0.0;
  if (encoding == TileEncoding::kDeltaVarint) {
    FC_ASSIGN_OR_RETURN(quant_step, reader.ReadValue<double>());
  }
  // The header's dimensions size the allocation below: reject any the
  // payload cannot possibly back before trusting them.
  const std::size_t available =
      reader.pos() < body_len ? body_len - reader.pos() : 0;
  if (!PayloadFits(width, height, nattr, MinCellBytes(encoding), available)) {
    return Status::Corruption("tile dimensions exceed payload");
  }
  auto tile_result = tiles::Tile::Make(tiles::TileKey{level, x, y}, width,
                                       height, std::move(names));
  if (!tile_result.ok()) {
    return tile_result.status().WithContext("decoding tile");
  }
  tiles::Tile tile = std::move(tile_result).value();
  FC_RETURN_IF_ERROR(DecodePayload(&reader, encoding, quant_step, &tile));
  if (reader.pos() != body_len) {
    return Status::Corruption("trailing bytes after tile payload");
  }
  return tile;
}

ProgressiveEncoding TileCodec::EncodeProgressive(const tiles::Tile& tile) const {
  ProgressiveEncoding out;
  const std::string full = Encode(tile);

  TileCodecOptions base_options;
  base_options.encoding = TileEncoding::kDeltaVarint;
  base_options.quant_step = options_.progressive_base_step;
  out.base = TileCodec(base_options).Encode(tile);
  if (out.base.size() >= full.size()) {
    // The coarse base would not undercut the exact payload (tiny or
    // incompressible tile): ship the exact blob as the base, no refinement.
    out.base = full;
    return out;
  }

  // The refinement reproduces what a client decodes from the all-or-nothing
  // blob — including this codec's own lossiness — not the pre-encode cells.
  auto final_tile = Decode(full);
  auto base_tile = Decode(out.base);
  FC_CHECK_MSG(final_tile.ok() && base_tile.ok(),
               "progressive encode cannot fail to re-decode its own blobs");

  std::string ref;
  // The refinement header is under 64 bytes; its payload is shaped like a
  // kDeltaVarint payload.
  ref.reserve(64 + MaxPayloadBytes(tile, TileEncoding::kDeltaVarint) +
              sizeof(std::uint64_t));
  AppendRaw(&ref, kRefinementMagic, sizeof(kRefinementMagic));
  AppendValue(&ref, kRefinementVersion);
  AppendValue(&ref, static_cast<std::uint8_t>(options_.encoding));
  std::uint64_t base_sum;
  std::memcpy(&base_sum, out.base.data() + out.base.size() - sizeof(base_sum),
              sizeof(base_sum));
  AppendValue(&ref, base_sum);
  AppendValue(&ref, static_cast<std::int32_t>(tile.key().level));
  AppendValue(&ref, tile.key().x);
  AppendValue(&ref, tile.key().y);
  AppendValue(&ref, tile.width());
  AppendValue(&ref, tile.height());
  AppendValue(&ref, static_cast<std::uint32_t>(tile.num_attrs()));
  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    const double* final_cells = final_tile->AttrData(a).data();
    const double* base_cells = base_tile->AttrData(a).data();
    AppendVarints(&ref, final_tile->AttrData(a).size(), [&](std::size_t i) {
      const std::uint64_t residual =
          BitsOf(final_cells[i]) - BitsOf(base_cells[i]);
      return ZigZag(static_cast<std::int64_t>(residual));
    });
  }
  AppendValue(&ref, BlobChecksum(ref.data(), ref.size()));
  ref.shrink_to_fit();
  out.refinement = std::move(ref);
  return out;
}

Result<tiles::Tile> TileCodec::Reassemble(const std::string& base,
                                          const std::string& refinement) {
  FC_ASSIGN_OR_RETURN(auto tile, Decode(base));
  if (refinement.empty()) return tile;  // base already carries the exact payload

  Reader reader(refinement);
  char magic[4];
  FC_RETURN_IF_ERROR(reader.ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kRefinementMagic, sizeof(kRefinementMagic)) != 0) {
    return Status::Corruption("bad refinement magic");
  }
  FC_ASSIGN_OR_RETURN(auto version, reader.ReadValue<std::uint32_t>());
  if (version != kRefinementVersion) {
    return Status::Corruption("unsupported refinement version");
  }
  FC_ASSIGN_OR_RETURN(auto encoding, reader.ReadValue<std::uint8_t>());
  if (encoding > static_cast<std::uint8_t>(TileEncoding::kDeltaVarint)) {
    return Status::Corruption("unknown refinement encoding");
  }

  // Verify the refinement's own trailing checksum before trusting the rest,
  // mirroring Decode: corruption anywhere in the chunk must fail here, never
  // surface as silently wrong residuals.
  if (refinement.size() < reader.pos() + sizeof(std::uint64_t)) {
    return Status::Corruption("refinement chunk truncated");
  }
  std::size_t body_len = refinement.size() - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, refinement.data() + body_len, sizeof(stored));
  if (stored != BlobChecksum(refinement.data(), body_len)) {
    return Status::Corruption("refinement checksum mismatch");
  }

  FC_ASSIGN_OR_RETURN(auto bound_sum, reader.ReadValue<std::uint64_t>());
  std::uint64_t base_sum;
  std::memcpy(&base_sum, base.data() + base.size() - sizeof(base_sum),
              sizeof(base_sum));
  if (bound_sum != base_sum) {
    return Status::Corruption("refinement does not match base chunk");
  }

  FC_ASSIGN_OR_RETURN(auto level, reader.ReadValue<std::int32_t>());
  FC_ASSIGN_OR_RETURN(auto x, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto y, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto width, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto height, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto nattr, reader.ReadValue<std::uint32_t>());
  if (level != tile.key().level || x != tile.key().x || y != tile.key().y ||
      width != tile.width() || height != tile.height() ||
      nattr != tile.num_attrs()) {
    return Status::Corruption("refinement/base tile header mismatch");
  }

  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    FC_ASSIGN_OR_RETURN(auto attr_len, reader.ReadValue<std::uint64_t>());
    std::size_t attr_end = reader.pos() + attr_len;
    double* cells = tile.MutableAttrData(a).data();
    FC_RETURN_IF_ERROR(reader.ReadVarints(
        tile.MutableAttrData(a).size(), [&](std::size_t i, std::uint64_t z) {
          cells[i] = DoubleFromBits(BitsOf(cells[i]) +
                                    static_cast<std::uint64_t>(UnZigZag(z)));
        }));
    if (reader.pos() != attr_end) {
      return Status::Corruption("refinement attribute length mismatch");
    }
  }
  if (reader.pos() != body_len) {
    return Status::Corruption("trailing bytes after refinement payload");
  }
  return tile;
}

std::string EncodeTile(const tiles::Tile& tile) {
  return TileCodec({TileEncoding::kRawF64}).Encode(tile);
}

Result<tiles::Tile> DecodeTile(const std::string& bytes) {
  return TileCodec::Decode(bytes);
}

}  // namespace fc::storage
