// Counts shard::Ring objects built through the library's public
// constructor, measured at the link boundary (CMakeLists.txt wraps the
// constructor symbol), so no library code changes to count them.
#ifndef PERFBENCH_RING_COUNT_H_
#define PERFBENCH_RING_COUNT_H_

#include <cstdint>

namespace perfbench {

// Rings constructed so far in this process, from any thread.
std::uint64_t RingBuilds();

}  // namespace perfbench

#endif  // PERFBENCH_RING_COUNT_H_
