#include "src/persist/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace cloudcache {
namespace persist {

Encoder* SnapshotWriter::AddSection(const std::string& name) {
  sections_.push_back(std::make_unique<Section>());
  sections_.back()->name = name;
  return &sections_.back()->encoder;
}

std::vector<uint8_t> SnapshotWriter::Serialize() const {
  Encoder out;
  out.PutU32(kSnapshotMagic);
  out.PutU32(kSnapshotFormatVersion);
  out.PutU64(config_hash_);
  out.PutU32(static_cast<uint32_t>(sections_.size()));
  for (const auto& section : sections_) {
    const std::vector<uint8_t>& payload = section->encoder.buffer();
    out.PutString(section->name);
    out.PutU64(payload.size());
    out.PutU32(Crc32(payload));
    out.PutBytes(payload.data(), payload.size());
  }
  return out.buffer();
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Serialize();
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open snapshot temp file: " + tmp);
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ok;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to snapshot temp file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename snapshot into place: " + path);
  }
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::FromBytes(std::vector<uint8_t> bytes) {
  SnapshotReader reader;
  reader.bytes_ = std::move(bytes);

  Decoder dec(reader.bytes_.data(), reader.bytes_.size());
  uint32_t magic = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec.ReadU32(&magic));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a cloudcache snapshot (bad magic)");
  }
  uint32_t version = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec.ReadU32(&version));
  if (version != kSnapshotFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(version) +
        " is not the supported version " +
        std::to_string(kSnapshotFormatVersion));
  }
  CLOUDCACHE_RETURN_IF_ERROR(dec.ReadU64(&reader.config_hash_));
  uint32_t count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec.ReadU32(&count));

  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    CLOUDCACHE_RETURN_IF_ERROR(dec.ReadString(&name));
    uint64_t size = 0;
    CLOUDCACHE_RETURN_IF_ERROR(dec.ReadU64(&size));
    uint32_t crc = 0;
    CLOUDCACHE_RETURN_IF_ERROR(dec.ReadU32(&crc));
    if (size > dec.remaining()) {
      return Status::OutOfRange("snapshot truncated inside section '" + name +
                                "'");
    }
    Span span;
    span.offset = reader.bytes_.size() - dec.remaining();
    span.size = static_cast<size_t>(size);
    const uint32_t actual =
        Crc32(reader.bytes_.data() + span.offset, span.size);
    if (actual != crc) {
      return Status::InvalidArgument("snapshot section '" + name +
                                     "' failed its CRC32 check");
    }
    if (!reader.sections_.emplace(name, span).second) {
      return Status::InvalidArgument("snapshot has duplicate section '" +
                                     name + "'");
    }
    // Re-seat the decoder past the payload.
    dec = Decoder(reader.bytes_.data() + span.offset + span.size,
                  reader.bytes_.size() - span.offset - span.size);
  }
  CLOUDCACHE_RETURN_IF_ERROR(dec.ExpectEnd());
  return reader;
}

Result<SnapshotReader> SnapshotReader::FromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot file not found: " + path);
    }
    return Status::IoError("cannot open snapshot file " + path + ": " +
                           std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IoError("cannot read snapshot file: " + path);
  }
  return FromBytes(std::move(bytes));
}

Status SnapshotReader::ExpectConfigHash(uint64_t expected) const {
  if (config_hash_ != expected) {
    return Status::FailedPrecondition(
        "snapshot was taken under a different configuration (config hash " +
        std::to_string(config_hash_) + ", this run is " +
        std::to_string(expected) +
        "); restore requires identical scheme/seed/workload/tenant/cluster "
        "settings");
  }
  return Status::OK();
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, span] : sections_) names.push_back(name);
  return names;
}

Result<Decoder> SnapshotReader::Section(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot has no section '" + name + "'");
  }
  return Decoder(bytes_.data() + it->second.offset, it->second.size);
}

void SetAsideRefusedSnapshot(const char* who, const std::string& path,
                             const Status& why) {
  const std::string kept = path + ".refused";
  const int renamed = std::rename(path.c_str(), kept.c_str());
  const int error = errno;
  if (renamed == 0) {
    std::fprintf(stderr,
                 "%s: snapshot %s refused (%s); starting fresh, the refused "
                 "snapshot is kept as %s\n",
                 who, path.c_str(), why.ToString().c_str(), kept.c_str());
  } else {
    std::fprintf(stderr,
                 "%s: snapshot %s refused (%s); starting fresh, and it "
                 "could not be renamed to %s: %s\n",
                 who, path.c_str(), why.ToString().c_str(), kept.c_str(),
                 std::strerror(error));
  }
}

}  // namespace persist
}  // namespace cloudcache
