#pragma once

/// \file file.h
/// Output locations and whole-file reads and artefact writes.

#include <fstream>
#include <ios>
#include <string>
#include <string_view>

namespace vanet::util {

/// Opens `path` to receive its complete new contents. An existing regular
/// file is unlinked first and a new one created, instead of truncating it
/// in place: with ext4's default `auto_da_alloc`, truncating a file whose
/// previous contents are still being written back blocks until that
/// writeback ends, so rewriting an artefact in a loop stalls. Symlinks
/// and other non-regular paths are opened (and truncated) as they are.
/// This is not an atomic replace; the campaign checkpoint keeps its
/// tmp+rename for that.
std::ofstream openForRewrite(const std::string& path,
                             std::ios::openmode mode = std::ios::out);

/// Replaces the contents of `path` with exactly `bytes` (opened with
/// openForRewrite). True only when the open, the write and the close all
/// succeed: a short write still held in the stream buffer fails at the
/// final flush, which a stream destructor would silently drop. Callers
/// log their own message on false.
bool writeFile(const std::string& path, std::string_view bytes);

/// The complete contents of `path`. Throws std::runtime_error naming the
/// path when it is missing, is a directory, or fails mid-read. The string
/// holds exactly the bytes read: the file system's size is only a hint
/// for the one sized read, never trusted as the length.
std::string readFile(const std::string& path);

/// Fails fast on an output location, before any work that would be lost:
/// throws std::runtime_error naming `flag` and `dir` unless `dir` (empty =
/// the working directory) is an existing directory.
void requireOutputDir(const std::string& flag, const std::string& dir);

/// The same for an output file: throws std::runtime_error naming `flag`
/// and the path unless the path's parent directory exists (see
/// requireOutputDir) and the path itself is not a directory.
void requireOutputFile(const std::string& flag, const std::string& path);

}  // namespace vanet::util
