#include "util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
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

std::string readFile(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    throw std::runtime_error("cannot open " + path + " for reading: " +
                             std::strerror(errno));
  }
  // One read sized one past a regular file's length sees its end at
  // once; anything without a size (a pipe) or that grew reads on in
  // doubling chunks. A directory opens but fails its first read.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  std::size_t chunk = error ? 4096 : static_cast<std::size_t>(size) + 1;
  std::string bytes;
  for (;;) {
    const std::size_t have = bytes.size();
    bytes.resize(have + chunk);
    const std::size_t got =
        std::fread(bytes.data() + have, 1, chunk, file.get());
    bytes.resize(have + got);
    if (got < chunk) break;
    chunk = bytes.size();
  }
  if (std::ferror(file.get())) {
    throw std::runtime_error("cannot read " + path + ": " +
                             std::strerror(errno));
  }
  return bytes;
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

void requireOutputFile(const std::string& flag, const std::string& path) {
  namespace fs = std::filesystem;
  requireOutputDir(flag, fs::path(path).parent_path().string());
  std::error_code error;
  if (fs::is_directory(path, error)) {
    throw std::runtime_error(flag + ": output path '" + path +
                             "' is a directory, not a file");
  }
}

}  // namespace vanet::util
