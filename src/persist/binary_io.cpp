#include "persist/binary_io.h"

#include <array>
#include <fstream>
#include <sstream>

namespace vire::persist {

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFU] ^ (crc >> 8U);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
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
