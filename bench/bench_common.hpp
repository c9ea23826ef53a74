#pragma once

// Shared harness for the figure/table reproduction benches: dataset pools,
// pool evaluation with progress, and the table formats the paper's figures
// translate into (CDF tables, box-plot percentile tables).

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/metrics.hpp"
#include "dataset/generator.hpp"

namespace bba::bench {

/// Frame-pair budget for an experiment. The default keeps each bench around
/// a minute on one core; set BBA_BENCH_PAIRS to scale toward the paper's
/// 6,145-pair pool.
[[nodiscard]] int pairCount(int defaultCount);

/// The standard mixed evaluation pool: separations 10–90 m, mixed traffic,
/// heterogeneous lidars, >= 2 common cars — mirroring the paper's filtered
/// V2V4Real selection.
[[nodiscard]] DatasetConfig standardConfig(std::uint64_t seed);

/// Generate and evaluate `count` pairs, with a progress line on stderr.
[[nodiscard]] std::vector<PairEvaluation> runPool(
    const BBAlign& aligner, const DatasetGenerator& generator, int count,
    Rng& rng, bool runVips = false);

/// A named error sample (one CDF curve of a figure).
using Series = std::pair<std::string, std::vector<double>>;

/// Print "fraction of cases with error <= x" for each series at each
/// threshold — the tabular form of the paper's CDF plots.
void printCdfTable(std::ostream& os, const std::string& title,
                   const std::string& unit,
                   const std::vector<double>& thresholds,
                   const std::vector<Series>& series);

/// Print box-plot percentiles (10/25/50/75/90) per named sample — the
/// tabular form of the paper's box-and-whisker plots (Figs. 8, 12, 14).
void printBoxTable(std::ostream& os, const std::string& title,
                   const std::string& unit,
                   const std::vector<Series>& series);

/// Nearest-rank percentile of an ascending-sorted sample, p in [0, 1]:
/// sorted[min(floor(p * n), n - 1)], 0 for an empty sample. The fleet and
/// map benches report their p50/p99 latencies with it.
[[nodiscard]] double nearestRankPercentile(const std::vector<double>& sorted,
                                           double p);

/// Standard figure-bench banner.
void printHeader(std::ostream& os, const std::string& experiment,
                 const std::string& paperClaim);

}  // namespace bba::bench
