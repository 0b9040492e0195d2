#pragma once

#include <cstddef>

#include "src/util/units.h"

namespace cloudcache {

/// The merge order of every multi-stream driver: the multi-tenant
/// Simulator, cloudcached's merge gate, and loadgen's pre-drawn schedule.
/// The next query comes from the live stream whose next arrival
/// (`peek(u)`, a SimTime) is earliest; ties go to the lowest stream
/// index. A pure function of the peeks and of `live(u)` over u in
/// [0, streams); returns `streams` when no stream is live. Merged
/// schedules are therefore functions of the stream generators alone,
/// never of which connection or thread got there first.
template <typename Peek, typename Live>
size_t MergeHead(size_t streams, const Peek& peek, const Live& live) {
  size_t head = streams;
  SimTime head_time = 0;
  for (size_t u = 0; u < streams; ++u) {
    if (!live(u)) continue;
    const SimTime time = peek(u);
    if (head == streams || time < head_time) {
      head = u;
      head_time = time;
    }
  }
  return head;
}

/// MergeHead over streams that are all live.
template <typename Peek>
size_t MergeHead(size_t streams, const Peek& peek) {
  return MergeHead(streams, peek, [](size_t) { return true; });
}

}  // namespace cloudcache
