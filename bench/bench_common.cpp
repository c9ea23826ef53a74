#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>

namespace bba::bench {

int pairCount(int defaultCount) {
  if (const char* env = std::getenv("BBA_BENCH_PAIRS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return defaultCount;
}

DatasetConfig standardConfig(std::uint64_t seed) {
  DatasetConfig cfg;
  cfg.seed = seed;
  return cfg;  // defaults are the standard pool (see dataset/generator.hpp)
}

std::vector<PairEvaluation> runPool(const BBAlign& aligner,
                                    const DatasetGenerator& generator,
                                    int count, Rng& rng, bool runVips) {
  std::vector<PairEvaluation> evals;
  evals.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto pair = generator.generatePair(i);
    if (!pair) continue;
    evals.push_back(evaluatePair(aligner, *pair, rng, runVips));
    if ((i + 1) % 10 == 0 || i + 1 == count) {
      std::cerr << "\r  [" << (i + 1) << "/" << count << " pairs]"
                << std::flush;
    }
  }
  std::cerr << "\n";
  return evals;
}

void printCdfTable(std::ostream& os, const std::string& title,
                   const std::string& unit,
                   const std::vector<double>& thresholds,
                   const std::vector<Series>& series) {
  os << "\n" << title << " — CDF: fraction of cases with error <= x " << unit
     << "\n";
  std::vector<std::string> header{"x (" + unit + ")"};
  std::vector<Cdf> cdfs;
  for (const auto& [name, values] : series) {
    header.push_back(name + " (n=" + std::to_string(values.size()) + ")");
    cdfs.emplace_back(values);
  }
  Table t(header);
  for (double x : thresholds) {
    std::vector<std::string> row{fmt(x, 2)};
    for (const Cdf& cdf : cdfs) row.push_back(fmt(cdf.fractionBelow(x), 3));
    t.addRow(std::move(row));
  }
  t.print(os);
}

void printBoxTable(std::ostream& os, const std::string& title,
                   const std::string& unit,
                   const std::vector<Series>& series) {
  os << "\n" << title << " — percentiles (" << unit << ")\n";
  Table t({"sample", "n", "p10", "p25", "p50", "p75", "p90"});
  for (const auto& [name, values] : series) {
    if (values.empty()) {
      t.addRow({name, "0", "-", "-", "-", "-", "-"});
      continue;
    }
    const BoxStats b = boxStats(values);
    t.addRow({name, std::to_string(b.n), fmt(b.p10, 3), fmt(b.p25, 3),
              fmt(b.p50, 3), fmt(b.p75, 3), fmt(b.p90, 3)});
  }
  t.print(os);
}

double nearestRankPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

void printHeader(std::ostream& os, const std::string& experiment,
                 const std::string& paperClaim) {
  os << "==============================================================\n";
  os << " " << experiment << "\n";
  os << " Paper: " << paperClaim << "\n";
  os << "==============================================================\n";
}

}  // namespace bba::bench
