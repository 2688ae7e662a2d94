#include "support/read_file.hpp"

#include <fstream>
#include <iterator>

namespace geogossip {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  try {
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  } catch (const std::ios_base::failure&) {
    return std::nullopt;  // a directory, or a failed read
  }
}

}  // namespace geogossip
