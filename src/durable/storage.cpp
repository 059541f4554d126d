#include "durable/storage.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace mps::durable {

// ---------------------------------------------------------------- Mem

std::vector<std::string> MemStorageEnv::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, file] : files_) out.push_back(name);
  return out;  // std::map iterates sorted
}

bool MemStorageEnv::exists(const std::string& name) const {
  return files_.count(name) > 0;
}

std::string MemStorageEnv::read(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end())
    throw std::runtime_error("MemStorageEnv::read: no such file: " + name);
  return it->second.durable + it->second.pending;
}

void MemStorageEnv::append(const std::string& name, std::string_view data) {
  files_[name].pending.append(data.data(), data.size());
}

void MemStorageEnv::write_atomic(const std::string& name,
                                 std::string_view data) {
  File& f = files_[name];
  f.durable.assign(data.data(), data.size());
  f.pending.clear();
}

void MemStorageEnv::remove(const std::string& name) { files_.erase(name); }

void MemStorageEnv::sync(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return;
  it->second.durable += it->second.pending;
  it->second.pending.clear();
}

void MemStorageEnv::crash() {
  for (auto it = files_.begin(); it != files_.end();) {
    it->second.pending.clear();
    if (it->second.durable.empty())
      it = files_.erase(it);  // never made durable: the crash forgets it
    else
      ++it;
  }
}

std::size_t MemStorageEnv::durable_bytes(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.durable.size();
}

std::size_t MemStorageEnv::pending_bytes(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second.pending.size();
}

std::size_t MemStorageEnv::total_durable_bytes() const {
  std::size_t total = 0;
  for (const auto& [name, file] : files_) total += file.durable.size();
  return total;
}

// --------------------------------------------------------------- File

namespace fs = std::filesystem;

FileStorageEnv::FileStorageEnv(std::string root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

std::string FileStorageEnv::path_of(const std::string& name) const {
  return (fs::path(root_) / name).string();
}

std::vector<std::string> FileStorageEnv::list() const {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(root_))
    if (entry.is_regular_file()) out.push_back(entry.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

bool FileStorageEnv::exists(const std::string& name) const {
  return fs::exists(path_of(name));
}

std::string FileStorageEnv::read(const std::string& name) const {
  std::ifstream in(path_of(name), std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("FileStorageEnv::read: no such file: " + name);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void FileStorageEnv::append(const std::string& name, std::string_view data) {
  std::ofstream out(path_of(name), std::ios::binary | std::ios::app);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void FileStorageEnv::write_atomic(const std::string& name,
                                  std::string_view data) {
  std::string tmp = path_of(name) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  fs::rename(tmp, path_of(name));
}

void FileStorageEnv::remove(const std::string& name) {
  fs::remove(path_of(name));
}

void FileStorageEnv::sync(const std::string& name) {
  (void)name;  // ofstream closed after every append; nothing buffered here
}

}  // namespace mps::durable
