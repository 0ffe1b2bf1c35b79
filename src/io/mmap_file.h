// Read-only memory-mapped file, the zero-copy input of BinRecordMmapReader.
//
// On POSIX this is open + fstat + mmap(PROT_READ, MAP_PRIVATE); the block
// decoder then iterates column segments in place without materializing
// strings or copying payloads. On platforms without mmap the class
// degrades to reading the file into a heap buffer — same interface, same
// results, just not zero-copy — so nothing above this layer needs a
// platform gate.
#pragma once

#include <cstddef>
#include <string>

namespace s2s::io {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { close(); }

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;

  /// Maps `path` read-only. Returns false (and sets error()) on failure;
  /// an empty file maps successfully with size() == 0.
  bool open(const std::string& path);
  void close();

  bool is_open() const noexcept { return opened_; }
  const unsigned char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  /// True when the bytes are an actual mmap (false: heap fallback).
  bool mapped() const noexcept { return mapped_; }
  const std::string& error() const noexcept { return error_; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  bool opened_ = false;
  std::string error_;
  std::string fallback_;  ///< owns the bytes when mmap is unavailable
};

}  // namespace s2s::io
