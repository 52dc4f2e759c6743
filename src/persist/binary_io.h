#pragma once
// Little-endian binary encoding + CRC32 for the persistence layer's on-disk
// formats (WAL frames, checkpoints — see docs/robustness.md, "Crash
// recovery"). Doubles are serialized by bit pattern, never by text round-
// trip, so a value read back is the *identical* IEEE-754 double — the whole
// bit-identical recovery contract rests on this.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace vire::persist {

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`. Used as the per-frame
/// and per-checkpoint integrity check; a torn or bit-flipped record fails it.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// Appends fixed-width little-endian fields to a byte buffer. Inline: the
/// codecs call these once per field on the ingest and replay paths.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// Bit-pattern encoding: the exact IEEE-754 double, NaN payloads included.
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buffer_.append(v);
  }
  void raw(std::string_view v) { buffer_.append(v); }

  [[nodiscard]] const std::string& bytes() const noexcept { return buffer_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  /// Empties the buffer and keeps its capacity, for reuse.
  void clear() noexcept { buffer_.clear(); }

 private:
  template <typename T>
  void put(T v) {
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(v >> (8 * i));
    }
    buffer_.append(bytes, sizeof(T));
  }

  std::string buffer_;
};

/// Reads fixed-width little-endian fields back. Every accessor returns
/// nullopt once the buffer is exhausted (or a length prefix overruns it) and
/// the reader stays failed — callers check ok() once at the end instead of
/// after every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  std::optional<std::uint8_t> u8() noexcept { return get<std::uint8_t>(); }
  std::optional<std::uint16_t> u16() noexcept { return get<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() noexcept { return get<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() noexcept { return get<std::uint64_t>(); }
  std::optional<double> f64() noexcept {
    const auto bits = get<std::uint64_t>();
    if (!bits) return std::nullopt;
    return std::bit_cast<double>(*bits);
  }
  std::optional<std::string> str() {
    const auto len = u32();
    if (!len || !take(*len)) return std::nullopt;
    std::string out(data_.substr(pos_, *len));
    pos_ += *len;
    return out;
  }

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  /// True when every byte was consumed and nothing failed.
  [[nodiscard]] bool exhausted() const noexcept {
    return !failed_ && pos_ == data_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  [[nodiscard]] bool take(std::size_t n) noexcept {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  template <typename T>
  std::optional<T> get() noexcept {
    if (!take(sizeof(T))) return std::nullopt;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(data_[pos_ + i])} << (8 * i);
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// The whole file at `path`; nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::filesystem::path& path);

// Sealed files (engine checkpoints "VCKP", control-journal checkpoints
// "VCJC"): magic[4] | body | u32 crc32(body).

/// Wraps `body` in `magic` (4 bytes) and its CRC.
[[nodiscard]] std::string seal(std::string_view magic, std::string_view body);
/// The body of sealed `data`; nullopt on a short file, wrong magic or CRC
/// mismatch. The view points into `data`.
[[nodiscard]] std::optional<std::string_view> unseal(std::string_view magic,
                                                     std::string_view data);
/// read_file + unseal: the body of the sealed file at `path`, nullopt when
/// it is missing, torn or corrupt.
[[nodiscard]] std::optional<std::string> read_sealed_file(
    const std::filesystem::path& path, std::string_view magic);

}  // namespace vire::persist
