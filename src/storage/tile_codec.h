// Tile serialization with pluggable payload encodings — the on-disk format
// of DiskTileStore and the compression engine of the shared cache's L2 tier.
//
// Layout (little-endian), format version 3:
//   magic "FCTL" | u32 version | u8 encoding
//   | i32 level | i64 x | i64 y | i64 width | i64 height | u32 nattr
//   | nattr x { u32 name_len | bytes }
//   | [f64 quant_step when encoding == kDeltaVarint]
//   | per-attribute payload (encoding-specific, see below)
//   | u64 BlobChecksum over every preceding byte
//
// Version 3 changed only the checksum (version 2 used byte-serial FNV-1a).
// Blobs of any other version fail as "unsupported tile version", so a
// DiskTileStore directory written by an older build must be re-packed.
//
// Payloads:
//   kRawF64      — width*height f64 per attribute; lossless, bit-exact.
//   kFloat32     — width*height f32 per attribute; halves the bytes, error
//                  bounded by one double->float rounding. Finite values
//                  beyond float range saturate at +/-FLT_MAX.
//   kDeltaVarint — values quantized to multiples of quant_step, then
//                  delta-coded and zigzag/LEB128 varint-packed per attribute
//                  (u64 byte length prefix). Smooth rasters compress to a
//                  byte or two per cell; absolute error <= quant_step / 2
//                  within the representable range |v| <= 2^62 * quant_step.
//                  Outside it values saturate to the lattice bounds, NaN
//                  decodes as 0, and infinities saturate — use a lossless
//                  encoding when any of that matters. Quantization rounds
//                  half away from zero (std::llround's rule) and is
//                  idempotent on decoded values: when every cell lies
//                  within 2^50 quanta of zero and decodes to 0 or a normal
//                  double, Encode(Decode(blob)) == blob byte for byte.
//
// The encoding is recorded in the blob, so Decode is self-describing: any
// TileCodec (or the free DecodeTile) can read any encoding's output.
//
// Checksum (BlobChecksum): four independent 64-bit lanes each take every
// fourth little-endian word (lane <- rotl((lane ^ word) * odd, 31)); the
// 0-7 tail bytes go through a byte-serial FNV-1a accumulator; then the
// lanes, the tail and the length fold into one sum through an odd multiply
// and an xorshift. Each step is a bijection of its lane for a fixed input
// and injective in the input for a fixed lane, so ANY single changed byte
// changes the sum, and the lanes run in parallel at memory speed where a
// single byte-serial multiply chain cannot.
//
// Progressive two-chunk encoding (EncodeProgressive / Reassemble): a tile
// splits into
//   * a BASE chunk — a standard format-v3 blob at coarse fidelity
//     (kDeltaVarint quantized to progressive_base_step), self-describing
//     and checksummed like any blob, so Decode(base) alone yields a usable
//     lossy tile (absolute error <= progressive_base_step / 2); and
//   * a REFINEMENT chunk — format "FCTR" v2: header (final encoding id,
//     the base chunk's checksum binding the pair, tile key/dims/attr
//     count), then per-attribute zigzag/varint residuals in the IEEE-754
//     bit domain (bits(final) - bits(base), wrapping), then its own
//     trailing BlobChecksum (v1 differed only in using FNV-1a).
// Reassemble(base, refinement) reproduces the configured encoding's
// decoded payload BIT-IDENTICALLY (bit-domain residuals are exact even for
// NaN payload bits), so streaming the pair is observationally equivalent
// to shipping the all-or-nothing blob. Each chunk rejects corruption
// independently, and a refinement applied to the wrong base fails the
// bound checksum. Degenerate tiles whose coarse base would not undercut
// the exact blob ship the exact blob AS the base with an empty refinement.

#ifndef FORECACHE_STORAGE_TILE_CODEC_H_
#define FORECACHE_STORAGE_TILE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "tiles/tile.h"

namespace fc::storage {

enum class TileEncoding : std::uint8_t {
  kRawF64 = 0,
  kFloat32 = 1,
  kDeltaVarint = 2,
};

const char* TileEncodingName(TileEncoding encoding);

struct TileCodecOptions {
  TileEncoding encoding = TileEncoding::kRawF64;

  /// Quantization step for kDeltaVarint (ignored otherwise). Decoded values
  /// land on multiples of this step, so it bounds the absolute error at
  /// step/2. Must be > 0.
  double quant_step = 1e-4;

  /// Quantization step of the coarse BASE chunk emitted by
  /// EncodeProgressive. Base-only decodes carry absolute error up to
  /// progressive_base_step / 2; the refinement chunk removes it exactly.
  /// Must be > 0.
  double progressive_base_step = 1.0;
};

/// A tile split for progressive streaming. `base` is a standard blob
/// (coarse kDeltaVarint fidelity) that Decode turns into a usable lossy
/// tile on its own; `refinement` upgrades it to the exact payload of the
/// encoding that produced the pair. An empty `refinement` means the base
/// already IS the exact payload (degenerate tiles ship as one chunk).
struct ProgressiveEncoding {
  std::string base;
  std::string refinement;
};

/// Encodes tiles per the configured options; decodes blobs of any encoding.
class TileCodec {
 public:
  explicit TileCodec(TileCodecOptions options = {});

  const TileCodecOptions& options() const { return options_; }

  /// True when Encode -> Decode reproduces every cell bit-exactly.
  bool lossless() const { return options_.encoding == TileEncoding::kRawF64; }

  /// Worst-case absolute per-cell error of this codec's quantized encoding
  /// for values within kDeltaVarint's representable range (see the format
  /// notes above; values beyond |v| <= 2^62 * quant_step saturate). 0 for
  /// lossless; kFloat32 error is value-dependent and not covered.
  double MaxAbsError() const {
    return options_.encoding == TileEncoding::kDeltaVarint
               ? options_.quant_step / 2.0
               : 0.0;
  }

  std::string Encode(const tiles::Tile& tile) const;

  /// Splits `tile` into a coarse base chunk plus an exact refinement chunk
  /// (see the format notes above). Reassemble(base, refinement) is
  /// bit-identical to Decode(Encode(tile)) for every encoding, and
  /// Decode(base) alone is a usable lossy tile.
  ProgressiveEncoding EncodeProgressive(const tiles::Tile& tile) const;

  /// Rebuilds the exact tile from a progressive pair. Each chunk's checksum
  /// is verified independently; a refinement bound to a different base (or
  /// whose header disagrees with the base) is Corruption.
  static Result<tiles::Tile> Reassemble(const std::string& base,
                                        const std::string& refinement);

  /// Parses a blob produced by any TileCodec. Corruption on truncation,
  /// header damage, or checksum mismatch.
  static Result<tiles::Tile> Decode(const std::string& bytes);

  /// The encoding recorded in a blob's header, without a full decode.
  static Result<TileEncoding> PeekEncoding(const std::string& bytes);

 private:
  TileCodecOptions options_;
};

/// The trailing checksum of tile blobs and refinement chunks over
/// `data[0, len)` (see the format notes above).
std::uint64_t BlobChecksum(const void* data, std::size_t len);

/// Back-compatible helpers: lossless raw-f64 encode, self-describing decode.
std::string EncodeTile(const tiles::Tile& tile);
Result<tiles::Tile> DecodeTile(const std::string& bytes);

}  // namespace fc::storage

#endif  // FORECACHE_STORAGE_TILE_CODEC_H_
