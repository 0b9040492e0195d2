#include "src/persist/util_io.h"

#include <string>
#include <utility>
#include <vector>

namespace cloudcache {
namespace persist {

void SaveRng(const Rng& rng, Encoder* enc) {
  uint64_t words[5];
  rng.SaveState(words);
  for (uint64_t word : words) enc->PutU64(word);
}

Status RestoreRng(Decoder* dec, Rng* rng) {
  uint64_t words[5];
  for (uint64_t& word : words) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&word));
  }
  rng->RestoreState(words);
  return Status::OK();
}

void SaveRunningStats(const RunningStats& stats, Encoder* enc) {
  enc->PutI64(stats.count());
  enc->PutDouble(stats.raw_mean());
  enc->PutDouble(stats.raw_m2());
  enc->PutDouble(stats.sum());
  enc->PutDouble(stats.raw_min());
  enc->PutDouble(stats.raw_max());
}

Status RestoreRunningStats(Decoder* dec, RunningStats* stats) {
  int64_t count = 0;
  double mean = 0, m2 = 0, sum = 0, min = 0, max = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadI64(&count));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&mean));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&m2));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&sum));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&min));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&max));
  stats->RestoreRaw(count, mean, m2, sum, min, max);
  return Status::OK();
}

void SaveTimeSeries(const TimeSeries& series, Encoder* enc) {
  enc->PutU64(series.size());
  for (double t : series.times()) enc->PutDouble(t);
  for (double v : series.values()) enc->PutDouble(v);
  enc->PutU32(series.stride_level());
  enc->PutU64(series.offered());
}

Status RestoreTimeSeries(Decoder* dec, TimeSeries* series) {
  uint64_t size = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&size));
  if (size > series->capacity()) {
    return Status::InvalidArgument(
        "snapshot timeline of " + std::to_string(size) +
        " points exceeds its capacity of " +
        std::to_string(series->capacity()));
  }
  std::vector<double> times(size), values(size);
  for (double& t : times) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&t));
  }
  for (double& v : values) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&v));
  }
  uint32_t stride_level = 0;
  uint64_t offered = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&stride_level));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&offered));
  if (!series->RestoreRaw(std::move(times), std::move(values), stride_level,
                          offered)) {
    return Status::InvalidArgument(
        "snapshot timeline's points, stride level and offer count disagree");
  }
  return Status::OK();
}

}  // namespace persist
}  // namespace cloudcache
