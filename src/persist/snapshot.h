#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/codec.h"
#include "src/util/status.h"

namespace cloudcache {
namespace persist {

/// Snapshot container format (see docs/persistence.md):
///
///   magic u32 · format_version u32 · config_hash u64 · section_count u32
///   then per section: name (u64 length + bytes) · payload length u64 ·
///   payload CRC32 u32 · payload bytes
///
/// Sections are named, independently checksummed byte blobs; components
/// serialize themselves through `Encoder` into a section and read back
/// through `Decoder`. The header's config hash binds a snapshot to the
/// exact `ExperimentConfig` that produced it — restoring into a different
/// configuration is rejected before any section is decoded.
inline constexpr uint32_t kSnapshotMagic = 0x504B4343;  // "CCKP"
/// v2: the metrics section's quantile accumulator became the obs-layer
/// Histogram (sparse log2 buckets) in both SimMetrics and TenantMetrics.
/// v3: the cloud account no longer carries a per-mutation credit history,
/// and each metrics timeline adds its stride level and offer count.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// Accumulates named sections and writes the container atomically:
/// serialize to `<path>.tmp`, flush, then rename over `path`, so a crash
/// mid-write leaves either the previous snapshot or none — never a torn
/// file (the reader's CRCs catch the remaining torn-rename window).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint64_t config_hash) : config_hash_(config_hash) {}

  /// Starts a new section; the returned encoder is owned by the writer and
  /// stays valid until the writer is destroyed. Section names must be
  /// unique (checked at load, where it is a data error, and asserted by
  /// tests at write time through Serialize round-trips).
  Encoder* AddSection(const std::string& name);

  /// The full container as bytes (for tests and in-memory round trips).
  std::vector<uint8_t> Serialize() const;

  /// Atomic write: temp file + rename. IoError on any filesystem failure.
  Status WriteToFile(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    Encoder encoder;
  };

  uint64_t config_hash_ = 0;
  std::vector<std::unique_ptr<Section>> sections_;
};

/// Parses and validates a snapshot container: magic, format version,
/// section directory, and every section's CRC32 up front. Any corruption
/// or truncation yields a descriptive Status — the loader never crashes on
/// hostile bytes. The config hash is exposed for the caller to match
/// against the running configuration (`ExpectConfigHash`), so version-skew
/// and foreign-snapshot errors carry distinct messages.
class SnapshotReader {
 public:
  static Result<SnapshotReader> FromBytes(std::vector<uint8_t> bytes);
  /// NotFound only when no file exists at `path`; every other failure to
  /// open or read it is an IoError.
  static Result<SnapshotReader> FromFile(const std::string& path);

  uint64_t config_hash() const { return config_hash_; }

  /// FailedPrecondition unless the snapshot's config hash equals
  /// `expected` — i.e. the snapshot was taken by a run with an identical
  /// deterministic configuration.
  Status ExpectConfigHash(uint64_t expected) const;

  bool HasSection(const std::string& name) const {
    return sections_.count(name) > 0;
  }
  std::vector<std::string> SectionNames() const;

  /// A decoder over the named section's payload. The decoder borrows the
  /// reader's buffer and must not outlive it.
  Result<Decoder> Section(const std::string& name) const;

 private:
  SnapshotReader() = default;

  struct Span {
    size_t offset = 0;
    size_t size = 0;
  };

  std::vector<uint8_t> bytes_;
  uint64_t config_hash_ = 0;
  std::map<std::string, Span> sections_;
};

/// What a fall-back restore (Restore::kAuto) does with a snapshot it
/// refused: reports `path` and `why` on stderr, prefixed by `who`, and
/// renames the file to `<path>.refused`, so the fresh run that follows
/// cannot overwrite it. A missing snapshot is not refused — callers start
/// fresh without calling this.
void SetAsideRefusedSnapshot(const char* who, const std::string& path,
                             const Status& why);

}  // namespace persist
}  // namespace cloudcache
