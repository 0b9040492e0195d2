#pragma once

#include "src/persist/codec.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace cloudcache {
namespace persist {

/// Serializers for the util accumulator types. Separate from metrics_io so
/// econ-layer components (schemes) can persist their RNGs without pulling
/// in the sim layer's metrics tree.

void SaveRng(const Rng& rng, Encoder* enc);
Status RestoreRng(Decoder* dec, Rng* rng);

void SaveRunningStats(const RunningStats& stats, Encoder* enc);
Status RestoreRunningStats(Decoder* dec, RunningStats* stats);

/// A bounded timeline: its points, stride level and offer count, so a
/// restored series decimates exactly where the uninterrupted one would.
void SaveTimeSeries(const TimeSeries& series, Encoder* enc);
Status RestoreTimeSeries(Decoder* dec, TimeSeries* series);

}  // namespace persist
}  // namespace cloudcache
