#include "util/file.h"

#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace vanet::util {

std::ofstream openForRewrite(const std::string& path, std::ios::openmode mode) {
  namespace fs = std::filesystem;
  std::error_code error;
  if (fs::symlink_status(path, error).type() == fs::file_type::regular) {
    // Best effort: if the unlink fails, the open below truncates in place
    // or reports the failure.
    fs::remove(path, error);
  }
  return std::ofstream(path, mode | std::ios::out | std::ios::trunc);
}

bool writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out = openForRewrite(path, std::ios::binary);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return !out.fail();
}

void requireOutputDir(const std::string& flag, const std::string& dir) {
  namespace fs = std::filesystem;
  const std::string shown = dir.empty() ? "." : dir;
  std::error_code error;
  const fs::file_status status = fs::status(shown, error);
  if (!fs::exists(status)) {
    throw std::runtime_error(flag + ": output directory '" + shown +
                             "' does not exist");
  }
  if (!fs::is_directory(status)) {
    throw std::runtime_error(flag + ": output path '" + shown +
                             "' is not a directory");
  }
}

}  // namespace vanet::util
