#pragma once

#include <cstdint>

/// \file task_graph.hpp
/// Constant stand-ins for the retired dependency-graph scheduler's mode
/// query and counters. No batched sweep uses a dependency graph, so the
/// mode is always "levels" and the graph counters are always 0.
///
/// Only pipebench/pipeline.cpp reads these (its `sched` run-record field and
/// `sched.*` counters). The next change to the benchmark deletes those
/// fields, and this header with them. Library, test and bench code must not
/// use it.

namespace hodlrx {

enum class SchedMode { kLevels };

inline SchedMode sched_mode() { return SchedMode::kLevels; }
inline const char* sched_mode_name(SchedMode) { return "levels"; }

namespace sched_stats {
inline std::uint64_t graphs_run() { return 0; }
inline std::uint64_t nodes() { return 0; }
inline std::uint64_t edges() { return 0; }
}  // namespace sched_stats

}  // namespace hodlrx
