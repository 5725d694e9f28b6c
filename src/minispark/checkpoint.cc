#include "minispark/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace rankjoin::minispark {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestMagic[] = "rankjoin-checkpoint-manifest v1";

/// Writes `data` to `path` via a temp file in the same directory,
/// fsync'd before the atomic rename into place — the commit protocol
/// every durable checkpoint artifact uses (DESIGN.md, durability
/// invariants). O_CLOEXEC keeps the fd out of any forked child.
Status WriteFileDurably(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("checkpoint: open " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written,
                              data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("checkpoint: write " + tmp + ": " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("checkpoint: fsync " + tmp + ": " + err);
  }
  if (::close(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IoError("checkpoint: close " + tmp + ": " + err);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IoError("checkpoint: rename " + tmp + " -> " + path +
                           ": " + err);
  }
  return Status::OK();
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const char* DiskPressurePolicyName(DiskPressurePolicy policy) {
  switch (policy) {
    case DiskPressurePolicy::kDropCheckpoints:
      return "drop-checkpoints";
    case DiskPressurePolicy::kFail:
      return "fail";
  }
  return "unknown";
}

CheckpointManager::CheckpointManager(std::string dir, bool resume,
                                     DiskPressurePolicy policy,
                                     CounterRegistry* counters)
    : dir_(std::move(dir)),
      resume_(resume),
      policy_(policy),
      counters_(counters) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    RANKJOIN_LOG(Warning) << "checkpoint dir unusable, checkpointing off: "
                          << dir_ << " (" << ec.message() << ")";
    return;
  }
  LoadManifest();
  if (!resume_) {
    // A fresh start over an existing directory invalidates every prior
    // entry by bumping the epoch; stale data files are overwritten as
    // the job re-runs.
    ++epoch_;
    entries_.clear();
  }
  // Commit the (possibly bumped) epoch immediately so a crash before
  // the first stage save still leaves a coherent manifest behind.
  if (Status s = CommitManifest(); !s.ok()) {
    RANKJOIN_LOG(Warning) << "checkpointing off: " << s;
    return;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void CheckpointManager::LoadManifest() {
  std::ifstream in(dir_ + "/" + kManifestName, std::ios::binary);
  if (!in.is_open()) return;  // no manifest yet: epoch_ stays 1
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // A torn manifest (crash mid-write of a non-durable copy, truncation)
  // must degrade to "fewer verified entries", never crash: lines are
  // only accepted when complete — terminated by '\n' — and well-formed.
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  for (std::string::size_type nl = text.find('\n', start);
       nl != std::string::npos; nl = text.find('\n', start)) {
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.empty() || lines[0] != kManifestMagic) {
    RANKJOIN_LOG(Warning) << "checkpoint manifest unreadable, ignoring: "
                          << dir_ << "/" << kManifestName;
    return;
  }
  uint64_t parsed_epoch = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::istringstream line(lines[i]);
    std::string tag;
    line >> tag;
    if (tag == "epoch") {
      unsigned long long e = 0;
      if (line >> e) parsed_epoch = e;
    } else if (tag == "entry") {
      std::string key;
      unsigned long long bytes = 0;
      unsigned long long entry_epoch = 0;
      if (line >> key >> bytes >> entry_epoch) {
        entries_[key] = Entry{bytes, entry_epoch};
      }
    }
    // Unknown or short lines are skipped (forward compatibility and
    // torn-tail tolerance share the same path).
  }
  if (parsed_epoch > 0) epoch_ = parsed_epoch;
  // Entries from older epochs never verify; drop them up front.
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = it->second.epoch == epoch_ ? std::next(it) : entries_.erase(it);
  }
}

Status CheckpointManager::CommitManifest() {
  std::ostringstream os;
  os << kManifestMagic << "\n";
  os << "epoch " << epoch_ << "\n";
  for (const auto& [key, entry] : entries_) {
    os << "entry " << key << " " << entry.bytes << " " << entry.epoch
       << "\n";
  }
  return WriteFileDurably(dir_ + "/" + kManifestName, os.str());
}

std::string CheckpointManager::NextKey(uint64_t fingerprint,
                                       uint64_t* occurrence) {
  const uint64_t occ = occurrence_[fingerprint]++;
  if (occurrence != nullptr) *occurrence = occ;
  return HexU64(fingerprint) + "-" + std::to_string(occ);
}

bool CheckpointManager::TryLoadBlob(const std::string& key,
                                    std::string* blob) {
  if (!enabled()) return false;
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.epoch != epoch_) return false;
  std::ifstream in(dir_ + "/" + key + ".ckpt", std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *blob = buffer.str();
  if (blob->size() != it->second.bytes) {
    if (counters_ != nullptr) {
      counters_->Add("checkpoint.restore_failed", 1);
    }
    return false;
  }
  return true;
}

Status CheckpointManager::SaveBlob(const std::string& key,
                                   const std::string& blob) {
  if (!enabled()) return Status::OK();
  Status s = WriteFileDurably(dir_ + "/" + key + ".ckpt", blob);
  if (s.ok()) {
    // Invariant: the data file is durable on disk BEFORE its manifest
    // entry becomes visible — a manifest entry always points at a
    // complete, fsync'd file.
    entries_[key] = Entry{blob.size(), epoch_};
    s = CommitManifest();
  }
  if (!s.ok()) {
    if (counters_ != nullptr) counters_->Add("fault.disk.enospc", 1);
    if (policy_ == DiskPressurePolicy::kFail) {
      if (counters_ != nullptr) counters_->Add("fault.disk.failed", 1);
      return s;
    }
    if (counters_ != nullptr) {
      counters_->Add("fault.disk.checkpoint_degraded", 1);
    }
    RANKJOIN_LOG(Warning) << "checkpoint write failed, dropping "
                          << "checkpointing for this job ("
                          << DiskPressurePolicyName(policy_)
                          << " policy): " << s;
    Disable();
    return Status::OK();
  }
  if (counters_ != nullptr) counters_->Add("checkpoint.saved", 1);
  return Status::OK();
}

}  // namespace rankjoin::minispark
