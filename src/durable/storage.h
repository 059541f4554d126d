// Storage environments: the byte-level substrate under the WAL and
// snapshot files.
//
// The durability layer never touches the filesystem directly — it goes
// through a StorageEnv, a minimal flat namespace of named byte files
// with append / atomic-replace / sync semantics. Two implementations:
//
//  - MemStorageEnv: the one the simulation uses. Each file keeps its
//    *durable* bytes separate from an *unsynced pending tail* (bytes
//    appended since the last sync). crash() models a process/power
//    failure: every pending tail vanishes, durable bytes survive. This
//    is what makes torn-write and fsync-batching behavior testable
//    deterministically — a crash between appends with sync_every > 1
//    really loses the unsynced suffix, exactly like a page cache would.
//    Tests can also corrupt bytes in place (read, flip, write_atomic)
//    to model media errors.
//
//  - FileStorageEnv: real files under a root directory, for tools and
//    benches that want artifacts on disk. sync() maps to flush (the
//    sim never depends on host fsync for correctness — see DESIGN.md
//    §11 on what is and isn't fsync'd in-sim).
//
// write_atomic models POSIX rename-into-place + directory fsync: the
// new content is durable immediately and a crash never observes a
// half-written file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mps::durable {

/// Flat namespace of named byte files (see file comment).
class StorageEnv {
 public:
  virtual ~StorageEnv() = default;

  /// Names of all existing files, sorted lexicographically.
  virtual std::vector<std::string> list() const = 0;

  virtual bool exists(const std::string& name) const = 0;

  /// Full current contents (durable + any unsynced tail — a live
  /// process reads its own writes). Throws std::runtime_error if the
  /// file does not exist.
  virtual std::string read(const std::string& name) const = 0;

  /// Appends bytes; creates the file if needed. The bytes are NOT
  /// durable until sync() — a crash() may lose them.
  virtual void append(const std::string& name, std::string_view data) = 0;

  /// Atomically replaces (or creates) the file with `data`, durably.
  virtual void write_atomic(const std::string& name, std::string_view data) = 0;

  /// Removes the file; no-op if absent.
  virtual void remove(const std::string& name) = 0;

  /// Makes all appended bytes of `name` durable.
  virtual void sync(const std::string& name) = 0;

  /// Models a process/power failure: drops every unsynced byte. Files
  /// whose entire content was unsynced disappear. No-op for backends
  /// where everything is always durable.
  virtual void crash() = 0;
};

/// In-memory environment with explicit durable-vs-pending bookkeeping.
class MemStorageEnv final : public StorageEnv {
 public:
  std::vector<std::string> list() const override;
  bool exists(const std::string& name) const override;
  std::string read(const std::string& name) const override;
  void append(const std::string& name, std::string_view data) override;
  void write_atomic(const std::string& name, std::string_view data) override;
  void remove(const std::string& name) override;
  void sync(const std::string& name) override;
  void crash() override;

  /// Bytes that would survive a crash right now (test observability).
  std::size_t durable_bytes(const std::string& name) const;
  /// Bytes that a crash would lose right now.
  std::size_t pending_bytes(const std::string& name) const;
  /// Total durable bytes across all files.
  std::size_t total_durable_bytes() const;

 private:
  struct File {
    std::string durable;
    std::string pending;  // appended since last sync
  };
  std::map<std::string, File> files_;
};

/// Real files under `root` (created if needed).
class FileStorageEnv final : public StorageEnv {
 public:
  explicit FileStorageEnv(std::string root);

  std::vector<std::string> list() const override;
  bool exists(const std::string& name) const override;
  std::string read(const std::string& name) const override;
  void append(const std::string& name, std::string_view data) override;
  void write_atomic(const std::string& name, std::string_view data) override;
  void remove(const std::string& name) override;
  void sync(const std::string& name) override;
  void crash() override {}  // host files: nothing to forget

  const std::string& root() const { return root_; }

 private:
  std::string path_of(const std::string& name) const;
  std::string root_;
};

}  // namespace mps::durable
