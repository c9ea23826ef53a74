// Keyframe map service benchmark: index build and query latency as the
// store grows 4 -> 4096 keyframes, plus end-to-end relocalization
// latency / coverage on scenario-matrix worlds.
//
// Build/query use synthetic keyframes (random descriptors, grid-layout
// positions spaced wider than the dedup gap) so store size is the only
// variable. The query benchmark's point is the scaling shape: candidates
// come from the tile index, so per-query cost is bounded by the places
// inside the query radius — not by store size — and p50 must grow
// sub-linearly as the store grows 1024x.
//
// BM_MapReloc measures the real rung: a fresh track-lost tracker with a
// drifted pose prior relocalizing against an ego-keyframe map built from
// the same world (suburban and tunnel presets), one coastWithEgo() call
// per iteration. Coverage counts validated locks; false_locks counts
// accepted poses more than 2m off ground truth (the tunnel pin demands 0).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/bb_align.hpp"
#include "dataset/sequence.hpp"
#include "features/descriptor.hpp"
#include "geom/pose2.hpp"
#include "map/keyframe_store.hpp"
#include "obs/obs.hpp"
#include "sim/presets.hpp"
#include "stream/pose_tracker.hpp"

#ifndef BBA_BUILD_TYPE
#define BBA_BUILD_TYPE ""
#endif

namespace bba {
namespace {

constexpr int kGrid = 4;
constexpr int kOrientations = 6;
constexpr int kDim = kGrid * kGrid * kOrientations;

DescriptorSet randomDescriptors(Rng& rng, int count) {
  std::vector<Keypoint> kps(static_cast<std::size_t>(count));
  std::vector<std::vector<float>> desc;
  desc.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<float> d(kDim);
    for (float& v : d) v = static_cast<float>(rng.uniform(0.0, 1.0));
    desc.push_back(std::move(d));
  }
  return DescriptorSet(std::move(kps), std::move(desc), kGrid, kOrientations);
}

/// N synthetic keyframes on a square grid, spacing wider than the dedup
/// gap so every insert lands. Deterministic in N.
struct SyntheticMap {
  std::vector<Pose2> poses;
  std::vector<DescriptorSet> descriptors;
};

SyntheticMap syntheticMap(int keyframes, double spacingM) {
  SyntheticMap out;
  Rng rng(4242);
  const int side = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(keyframes))));
  for (int i = 0; i < keyframes; ++i) {
    const double x = static_cast<double>(i % side) * spacingM;
    const double y = static_cast<double>(i / side) * spacingM;
    out.poses.push_back(Pose2{x, y, 0.0});
    out.descriptors.push_back(randomDescriptors(rng, 3));
  }
  return out;
}

/// Index build: insert N synthetic keyframes into an empty store.
void BM_MapBuild(benchmark::State& state) {
  const int keyframes = static_cast<int>(state.range(0));
  ThreadLimit limit(1);
  const SyntheticMap input = syntheticMap(keyframes, 8.0);

  map::KeyframeStoreConfig cfg;
  cfg.capacity = keyframes;
  std::size_t tiles = 0;
  for (auto _ : state) {
    map::KeyframeStore store(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < keyframes; ++i)
      store.insert(input.poses[static_cast<std::size_t>(i)],
                   input.descriptors[static_cast<std::size_t>(i)]);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    tiles = store.tileCount();
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["kf"] = static_cast<double>(keyframes);
  state.counters["tiles"] = static_cast<double>(tiles);
}
BENCHMARK(BM_MapBuild)
    ->ArgNames({"keyframes"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(8)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// k-NN query against a prebuilt store of N keyframes: one query per
/// iteration at a position rotating across the mapped area. real_time is
/// the mean; p50_us/p99_us come from the per-query samples. Sub-linear
/// scaling shows up as candidates saturating at the radius disc while the
/// store grows.
void BM_MapQuery(benchmark::State& state) {
  const int keyframes = static_cast<int>(state.range(0));
  ThreadLimit limit(1);
  const double spacing = 8.0;
  const SyntheticMap input = syntheticMap(keyframes, spacing);

  map::KeyframeStoreConfig cfg;
  cfg.capacity = keyframes;
  map::KeyframeStore store(cfg);
  for (int i = 0; i < keyframes; ++i)
    store.insert(input.poses[static_cast<std::size_t>(i)],
                 input.descriptors[static_cast<std::size_t>(i)]);

  Rng rng(7);
  const DescriptorSet query = randomDescriptors(rng, 3);
  const int side = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(keyframes))));
  const double extent = static_cast<double>(side) * spacing;

  std::vector<double> sampleUs;
  std::size_t hits = 0;
  std::size_t queries = 0;
  int qi = 0;
  for (auto _ : state) {
    // Rotate the query point over the mapped area (deterministic walk).
    const Vec2 at{std::fmod(37.0 * static_cast<double>(qi) + 11.0, extent),
                  std::fmod(53.0 * static_cast<double>(qi) + 29.0, extent)};
    ++qi;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<map::QueryMatch> matches = store.query(query, at);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(seconds);
    sampleUs.push_back(seconds * 1e6);
    hits += matches.empty() ? 0u : 1u;
    ++queries;
    benchmark::DoNotOptimize(matches.size());
  }
  std::sort(sampleUs.begin(), sampleUs.end());
  state.counters["p50_us"] = bench::nearestRankPercentile(sampleUs, 0.50);
  state.counters["p99_us"] = bench::nearestRankPercentile(sampleUs, 0.99);
  state.counters["hit_rate"] =
      queries > 0 ? static_cast<double>(hits) / static_cast<double>(queries)
                  : 0.0;
  state.counters["kf"] = static_cast<double>(keyframes);
}
BENCHMARK(BM_MapQuery)
    ->ArgNames({"keyframes"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(256)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// End-to-end relocalization on a scenario-matrix world: an ego-keyframe
/// map built from frames 0..N-1, then per iteration a FRESH track-lost
/// tracker (drifted prior, no peer) runs one coastWithEgo() over a
/// rotating frame. world: 0 = suburban, 1 = tunnel.
void BM_MapReloc(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  ThreadLimit limit(1);

  SequenceConfig sc;
  sc.seed = 4242;
  sc.frames = 6;
  sc.scenario = scenarioPreset(world == 0 ? WorldPreset::Suburban
                                          : WorldPreset::Tunnel);
  const SequenceGenerator gen(sc);

  BBAlign aligner;
  map::KeyframeStoreConfig mcfg;
  mcfg.keyframeGapM = 2.0;
  map::KeyframeStore store(mcfg);
  std::vector<CarPerceptionData> egos;
  std::vector<Pose2> gt;
  for (int k = 0; k < sc.frames; ++k) {
    const StreamFrame f = gen.frame(k);
    egos.push_back(aligner.makeCarData(f.egoCloud, f.egoDets));
    gt.push_back(gen.world()
                     .vehicleById(gen.world().egoVehicleId)
                     .trajectory.pose(static_cast<double>(k) *
                                      sc.framePeriod));
    const auto feats = aligner.computeEgoFeatures(egos.back());
    store.insert(gt.back(), feats->descriptors, egos.back());
  }

  std::vector<double> sampleMs;
  int attempts = 0;
  int locks = 0;
  int falseLocks = 0;
  double errSum = 0.0;
  int fi = 0;
  for (auto _ : state) {
    const int k = fi % sc.frames;
    ++fi;
    PoseTracker tracker;
    tracker.attachMapStore(&store);
    const Pose2 prior{gt[static_cast<std::size_t>(k)].t.x + 1.2,
                      gt[static_cast<std::size_t>(k)].t.y - 0.9,
                      gt[static_cast<std::size_t>(k)].theta + 0.05};
    tracker.setEgoPosePrior(prior);
    Rng rng(11);
    const auto t0 = std::chrono::steady_clock::now();
    const TrackerResult t =
        tracker.coastWithEgo(egos[static_cast<std::size_t>(k)], rng);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(seconds);
    sampleMs.push_back(seconds * 1e3);
    ++attempts;
    if (t.outcome == TrackerOutcome::Relocalized) {
      ++locks;
      const double err =
          poseError(t.pose, gt[static_cast<std::size_t>(k)]).translation;
      errSum += err;
      if (err > 2.0) ++falseLocks;
    }
  }
  std::sort(sampleMs.begin(), sampleMs.end());
  state.counters["p50_ms"] = bench::nearestRankPercentile(sampleMs, 0.50);
  state.counters["p99_ms"] = bench::nearestRankPercentile(sampleMs, 0.99);
  state.counters["coverage"] =
      attempts > 0
          ? static_cast<double>(locks) / static_cast<double>(attempts)
          : 0.0;
  state.counters["mean_err_m"] =
      locks > 0 ? errSum / static_cast<double>(locks) : 0.0;
  state.counters["false_locks"] = static_cast<double>(falseLocks);
  state.counters["map_kf"] = static_cast<double>(store.size());
}
BENCHMARK(BM_MapReloc)
    ->ArgNames({"world"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(6)
    ->Arg(0)
    ->Arg(1);

}  // namespace
}  // namespace bba

int main(int argc, char** argv) {
  bba::obs::EnvObservability obs;
  const char* buildType = BBA_BUILD_TYPE;
  benchmark::AddCustomContext("bba_build_type",
                              buildType[0] != '\0' ? buildType : "unknown");
  benchmark::AddCustomContext(
      "bba_host_cpus",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
