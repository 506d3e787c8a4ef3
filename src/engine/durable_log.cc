#include "engine/durable_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>

#include "support/binio.h"
#include "support/str.h"

namespace snorlax::engine {

using support::Status;
using support::StatusCode;
 

namespace {

std::string SegmentName(uint64_t index) {
  return StrFormat("segment-%06llu.snlog", static_cast<unsigned long long>(index));
}

// Parses "segment-NNNNNN.snlog"; returns false for anything else in the dir.
bool ParseSegmentName(const std::string& name, uint64_t* index) {
  const std::string prefix = "segment-";
  const std::string suffix = ".snlog";
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *index = value;
  return true;
}

Status MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      continue;
    }
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") {
      continue;
    }
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Error(StatusCode::kInternal,
                           StrFormat("mkdir %s: %s", partial.c_str(), std::strerror(errno)));
    }
  }
  return Status::Ok();
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Error(StatusCode::kInternal,
                         StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  out->clear();
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return Status::Error(StatusCode::kInternal,
                           StrFormat("read %s: %s", path.c_str(), std::strerror(errno)));
    }
    if (n == 0) {
      break;
    }
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return Status::Ok();
}

}  // namespace

DurableLog::~DurableLog() { Close(); }

bool DurableLog::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

void DurableLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

support::Status DurableLog::Open(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    return Status::Error(StatusCode::kFailedPrecondition, "durable log already open");
  }
  options_ = options;
  if (options_.directory.empty()) {
    return Status::Error(StatusCode::kInvalidArgument, "durable log needs a directory");
  }
  Status made = MakeDirs(options_.directory);
  if (!made.ok()) {
    return made;
  }
  // Appends continue into a fresh segment after the newest existing one: the
  // previous incarnation's tail may be torn, and a new file means the salvage
  // logic only ever has to reason about one incarnation per segment.
  uint64_t last = 0;
  bool any = false;
  for (const std::string& name : ListSegmentsLocked()) {
    uint64_t index = 0;
    if (ParseSegmentName(name, &index)) {
      last = std::max(last, index);
      any = true;
    }
  }
  segment_index_ = any ? last + 1 : 1;
  return OpenSegmentLocked(/*fresh=*/true);
}

support::Status DurableLog::OpenSegmentLocked(bool fresh) {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = options_.directory + "/" + SegmentName(segment_index_);
  const int flags = O_WRONLY | O_CREAT | (fresh ? O_EXCL : O_APPEND);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::Error(StatusCode::kInternal,
                         StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  segment_bytes_ = 0;
  ++stats_.segments_created;
  return Status::Ok();
}

std::vector<std::string> DurableLog::ListSegmentsLocked() const {
  std::vector<std::string> names;
  DIR* dir = ::opendir(options_.directory.c_str());
  if (dir == nullptr) {
    return names;
  }
  while (struct dirent* entry = ::readdir(dir)) {
    uint64_t index = 0;
    if (ParseSegmentName(entry->d_name, &index)) {
      names.emplace_back(entry->d_name);
    }
  }
  ::closedir(dir);
  // Numeric order == write order (names are zero-padded, but parse anyway so
  // an index past the pad width still sorts correctly).
  std::sort(names.begin(), names.end(), [](const std::string& a, const std::string& b) {
    uint64_t ia = 0, ib = 0;
    ParseSegmentName(a, &ia);
    ParseSegmentName(b, &ib);
    return ia < ib;
  });
  return names;
}

support::Status DurableLog::WriteAllLocked(const uint8_t* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Error(StatusCode::kInternal,
                           StrFormat("durable log write: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

support::Status DurableLog::Append(const DurableSiteKey& site, const SiteRecord& record) {
  std::vector<uint8_t> payload;
  support::AppendU64(&payload, site.module_fingerprint);
  support::AppendU32(&payload, site.failing_inst);
  EncodeSiteRecord(record, &payload);
  if (payload.size() > kMaxRecordBytes) {
    return Status::Error(StatusCode::kResourceExhausted, "durable record over size cap");
  }

  std::vector<uint8_t> framed;
  framed.reserve(kRecordHeaderBytes + payload.size());
  framed.insert(framed.end(), kRecordMagic, kRecordMagic + 4);
  support::AppendU32(&framed, static_cast<uint32_t>(payload.size()));
  support::AppendU32(&framed, support::Crc32(payload.data(), payload.size()));
  framed.insert(framed.end(), payload.begin(), payload.end());

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    return Status::Error(StatusCode::kFailedPrecondition, "durable log not open");
  }
  if (segment_bytes_ > 0 && segment_bytes_ + framed.size() > options_.max_segment_bytes) {
    ++segment_index_;
    Status rotated = OpenSegmentLocked(/*fresh=*/true);
    if (!rotated.ok()) {
      return rotated;
    }
  }
  Status wrote = WriteAllLocked(framed.data(), framed.size());
  if (!wrote.ok()) {
    return wrote;
  }
  segment_bytes_ += framed.size();
  ++stats_.records_appended;
  stats_.bytes_appended += framed.size();
  if (options_.fsync_each_append) {
    ::fsync(fd_);
    ++stats_.syncs;
  }
  return Status::Ok();
}

support::Status DurableLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    return Status::Error(StatusCode::kFailedPrecondition, "durable log not open");
  }
  if (::fsync(fd_) != 0) {
    return Status::Error(StatusCode::kInternal,
                         StrFormat("fsync: %s", std::strerror(errno)));
  }
  ++stats_.syncs;
  return Status::Ok();
}

support::Status DurableLog::Replay(
    const std::function<void(const DurableSiteKey&, SiteRecord&&)>& fn) {
  std::vector<std::string> names;
  std::string directory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.directory.empty()) {
      return Status::Error(StatusCode::kFailedPrecondition, "durable log not open");
    }
    names = ListSegmentsLocked();
    directory = options_.directory;
  }
  // Replay-side counts accrue here and merge into stats_ once, at the end.
  Stats replay;

  // Artifact identity is (site, kind, key); equal key means equal content by
  // construction, so replaying the first copy and dropping the rest is exact.
  struct SeenKey {
    uint64_t fp;
    uint32_t inst;
    uint8_t kind;
    uint64_t key;
    bool operator==(const SeenKey& o) const {
      return fp == o.fp && inst == o.inst && kind == o.kind && key == o.key;
    }
  };
  struct SeenHash {
    size_t operator()(const SeenKey& k) const {
      uint64_t h = HashCombine(k.fp, k.inst);
      h = HashCombine(h, k.kind);
      h = HashCombine(h, k.key);
      return static_cast<size_t>(h);
    }
  };
  std::unordered_set<SeenKey, SeenHash> seen_artifacts;

  for (const std::string& name : names) {
    std::vector<uint8_t> bytes;
    Status read = ReadFileBytes(directory + "/" + name, &bytes);
    if (!read.ok()) {
      ++replay.records_corrupt;
      continue;
    }
    size_t pos = 0;
    while (pos < bytes.size()) {
      // Resync: scan to the next record magic (mirrors FrameAssembler).
      size_t magic_at = pos;
      while (magic_at + 4 <= bytes.size() &&
             std::memcmp(bytes.data() + magic_at, kRecordMagic, 4) != 0) {
        ++magic_at;
      }
      if (magic_at + 4 > bytes.size()) {
        // No further magic: trailing garbage (or a torn magic) ends the file.
        replay.bytes_discarded += bytes.size() - pos;
        if (pos < bytes.size()) {
          ++replay.truncated_tails;
        }
        break;
      }
      if (magic_at != pos) {
        replay.bytes_discarded += magic_at - pos;
        pos = magic_at;
      }
      if (pos + kRecordHeaderBytes > bytes.size()) {
        replay.bytes_discarded += bytes.size() - pos;
        ++replay.truncated_tails;
        break;
      }
      support::ByteReader header(bytes.data() + pos + 4, 8);
      const uint32_t len = header.U32();
      const uint32_t crc = header.U32();
      if (len > kMaxRecordBytes) {
        // A forged/flipped length would otherwise swallow the rest of the
        // segment; treat the header as garbage and resync one byte later.
        ++replay.records_corrupt;
        replay.bytes_discarded += 1;
        pos += 1;
        continue;
      }
      if (pos + kRecordHeaderBytes + len > bytes.size()) {
        // Torn tail: the record was cut mid-write. Salvage ends here.
        replay.bytes_discarded += bytes.size() - pos;
        ++replay.truncated_tails;
        break;
      }
      const uint8_t* payload = bytes.data() + pos + kRecordHeaderBytes;
      if (support::Crc32(payload, len) != crc) {
        ++replay.records_corrupt;
        replay.bytes_discarded += 1;
        pos += 1;  // resync past this magic; the scan finds the next record
        continue;
      }
      support::ByteReader body(payload, len);
      DurableSiteKey site;
      site.module_fingerprint = body.U64();
      site.failing_inst = body.U32();
      SiteRecord record;
      const size_t record_at = len - body.remaining();
      Status decoded = body.ok()
                           ? DecodeSiteRecord({payload + record_at, len - record_at}, &record)
                           : body.status();
      pos += kRecordHeaderBytes + len;
      if (!decoded.ok()) {
        ++replay.records_corrupt;
        continue;
      }
      if (record.type == SiteRecord::Type::kArtifact) {
        const SeenKey key{site.module_fingerprint, site.failing_inst,
                          static_cast<uint8_t>(record.kind), record.key};
        if (!seen_artifacts.insert(key).second) {
          ++replay.records_duplicate;
          continue;
        }
      }
      ++replay.records_replayed;
      fn(site, std::move(record));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.records_replayed += replay.records_replayed;
  stats_.records_corrupt += replay.records_corrupt;
  stats_.records_duplicate += replay.records_duplicate;
  stats_.truncated_tails += replay.truncated_tails;
  stats_.bytes_discarded += replay.bytes_discarded;
  return Status::Ok();
}

DurableLog::Stats DurableLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace snorlax::engine
