#include "persist/binary_io.h"

#include <array>
#include <fstream>

namespace vire::persist {

namespace {

/// Slice-by-8 tables: tables[0] is the bytewise table, and tables[k][b] is
/// the CRC of byte b followed by k zero bytes, so eight input bytes fold
/// into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8U) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const CrcTables t = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFU;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  // Every WAL frame and journal record is checked on write and on each
  // recovery walk; eight bytes per step runs about 3x the bytewise loop.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t low = crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8U |
                                     std::uint32_t{p[2]} << 16U |
                                     std::uint32_t{p[3]} << 24U);
    crc = t[7][low & 0xFFU] ^ t[6][(low >> 8U) & 0xFFU] ^
          t[5][(low >> 16U) & 0xFFU] ^ t[4][low >> 24U] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8U);
  return crc ^ 0xFFFFFFFFU;
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  // One read into a string sized once: a stream copy would grow its buffer
  // by doubling, holding up to twice the file at the peak.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
  if (size < 0) return std::nullopt;
  std::string data(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  data.resize(static_cast<std::size_t>(in.gcount()));  // a file cut meanwhile
  return data;
}

std::string seal(std::string_view magic, std::string_view body) {
  ByteWriter w;
  w.raw(magic.substr(0, 4));
  w.raw(body);
  w.u32(crc32(body));
  return w.take();
}

std::optional<std::string_view> unseal(std::string_view magic,
                                       std::string_view data) {
  if (data.size() < 4 + 4 || data.substr(0, 4) != magic.substr(0, 4)) {
    return std::nullopt;
  }
  const std::string_view body = data.substr(4, data.size() - 8);
  if (crc32(body) != *ByteReader(data.substr(data.size() - 4)).u32()) {
    return std::nullopt;
  }
  return body;
}

std::optional<std::string> read_sealed_file(const std::filesystem::path& path,
                                            std::string_view magic) {
  const auto data = read_file(path);
  if (!data) return std::nullopt;
  const auto body = unseal(magic, *data);
  if (!body) return std::nullopt;
  return std::string(*body);
}

}  // namespace vire::persist
