#pragma once
// Per-thread working memory of one locate (internal to src/core).
//
// Elimination's distance spread and the weighting kernel's runs and
// per-survivor sums live here rather than in fresh vectors per call: a
// union-fallback locate keeps more than half of the grid alive, and
// allocating and first-touching that much memory per tag was a large part
// of its cost. There is one instance per thread because locates do run
// concurrently: the evaluation runner (src/eval/runner.cpp) spreads its
// Monte-Carlo trials, each with its own localizer, over
// support::parallel_for, and in-process shard hosts each locate on their own
// worker thread. Per-thread buffers need no worker index and no lock. Every
// buffer is overwritten before it is read, so nothing carries over from one
// locate to the next and results do not depend on which thread ran them.
// Buffers only grow; their size is bounded by the largest grid a thread has
// located on.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vire::core::detail {

/// A maximal run of set mask bits inside one lattice row: nodes
/// [start, end), all in `row`, the first at column `col`.
struct Run {
  std::size_t start = 0;
  std::size_t end = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  std::uint32_t label = 0;  ///< component number (smallest node first)
};

struct LocateScratch {
  // Elimination: per-node largest / smallest reader distance.
  std::vector<double> hi;
  std::vector<double> lo;
  // Weighting: the survivor mask as runs, the union-find forest over them,
  // and per-survivor values in ascending node order.
  std::vector<Run> runs;
  std::vector<std::uint32_t> parent;
  std::vector<double> discrepancy;  ///< sum of per-reader discrepancies
  std::vector<double> used;         ///< readers that contributed to it
  std::vector<double> w1;
  std::vector<double> weight;
};

/// The calling thread's scratch.
inline LocateScratch& locate_scratch() {
  thread_local LocateScratch scratch;
  return scratch;
}

}  // namespace vire::core::detail
