// Outside-in benchmark of BB-Align: one workload per process, closed loop
// with one client, fixed work per pass (see perfbench/README.md).
//
//   perfbench --workload pair_cold|fleet_stream|fleet_churn --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--setup-only]
//
// Every workload is a fixed, seed-determined sequence of operations ("a
// pass"); a run replays a fixed number of whole passes, so two runs of the
// same code do the same work in the same mix. An op's latency is its best
// over the run's passes, which filters the host's short contention bursts
// out of the end-to-end metrics. Timed operations call only
// the library's public API. With --trace 1, untraced passes (the overhead
// baseline) alternate with traced passes that record one span per
// benchmark-side call and read the per-call accounts the library returns
// (PoseRecoveryReport, TrackerReport, SessionFrameResult, ServiceReport).
// Nothing inside the library is instrumented for this.
//
// Output: JSON lines on stdout, the last one being the result object that
// perfbench/run.py turns into the benchmark's final line.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/bb_align.hpp"
#include "core/ego_cache.hpp"
#include "dataset/fault.hpp"
#include "dataset/generator.hpp"
#include "dataset/sequence.hpp"
#include "geom/pose2.hpp"
#include "map/keyframe_store.hpp"
#include "service/cooperation_service.hpp"
#include "service/session_lifecycle.hpp"
#include "wire/message.hpp"

#ifndef BBA_BUILD_TYPE
#define BBA_BUILD_TYPE ""
#endif

namespace bba::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- fixed workload shape ----------------------------------------------
// The pose workloads evaluate a fixed set of scenes with fixed RANSAC
// streams, so their pose outcomes and recover() mix do not change with
// --seed. On pair_cold the seed permutes the order of the pairs;
// fleet_stream's inputs are fully fixed. fleet_churn has no pose outcome:
// its seed drives the fleet world and the churn schedule. See README.md,
// "Seeds".
constexpr std::uint64_t kPairSceneSeed = 4242;
constexpr int kPairPoolSize = 16;
constexpr std::uint64_t kStreamSceneSeed = 4242;
constexpr int kStreamPeers = 6;
constexpr int kStreamFrames = 10;
constexpr int kStreamThreads = 2;
constexpr int kRecoverBudget = 4;
constexpr int kChurnPeers = 256;
constexpr int kChurnWorldPeers = 320;
constexpr int kChurnSlots = 64;
constexpr int kChurnFrames = 600;
constexpr double kChurnMinClaimRangeM = 160.0;
// Ground-truth bounds of a usable pose: ServiceConfig's consistency
// thresholds.
constexpr double kMaxPoseErrorM = 2.0;
constexpr double kMaxPoseErrorDeg = 10.0;

// ---- spans -------------------------------------------------------------

/// Benchmark-side trace: one span per call the benchmark makes into the
/// library. Spans stay in memory until the run ends. Only the main thread
/// records, so no synchronisation is needed.
class SpanLog {
 public:
  struct Span {
    const char* layer = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint64_t op = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  void setOp(std::uint64_t op) { op_ = op; }

  int open(const char* layer) {
    if (!enabled_) return -1;
    Span s;
    s.layer = layer;
    s.startNs = nowNs();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    stack_.pop_back();
  }

  /// Total duration (ms) of all spans of one layer.
  [[nodiscard]] double totalMs(const char* layer) const {
    double ms = 0.0;
    for (const Span& s : spans_)
      if (std::strcmp(s.layer, layer) == 0)
        ms += static_cast<double>(s.endNs - s.startNs) * 1e-6;
    return ms;
  }

  /// Per layer: {spans, total ms, self ms}. Self time is a span's duration
  /// minus the time its direct children cover.
  [[nodiscard]] std::map<std::string, std::array<double, 3>> summary() const {
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, std::array<double, 3>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& row = out[s.layer];
      row[0] += 1.0;
      row[1] += static_cast<double>(s.endNs - s.startNs) * 1e-6;
      row[2] += static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-6;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"layer\":\"" << s.layer
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs << "}";
    }
    f << "\n],\"layers\":{";
    bool first = true;
    for (const auto& [layer, row] : summary()) {
      f << (first ? "\n" : ",\n") << "\"" << layer << "\":{\"spans\":"
        << row[0] << ",\"total_ms\":" << row[1] << ",\"self_ms\":" << row[2]
        << "}";
      first = false;
    }
    f << "\n}}\n";
  }

 private:
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* layer)
      : log_(log), idx_(log.open(layer)) {}
  ~ScopedSpan() { log_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

// ---- per-layer accounts (traced passes only) ------------------------------

/// Sums over the traced passes, turned into the per-layer metrics.
struct LayerAcc {
  // PoseRecoveryReport, every recover() call.
  double recovers = 0, msMim = 0, msKeypoints = 0, msDescriptors = 0,
         msMatching = 0, msRansacBv = 0, msIcpPolish = 0, msStage2 = 0,
         msTotal = 0, yawCandidates = 0, keypoints = 0, matches = 0,
         ransacIterations = 0, inliersBv = 0, successes = 0;
  // Frames / service.
  double frames = 0, inputs = 0, egoComputations = 0, primaryCalls = 0,
         relaxedCalls = 0, slots = 0, shed = 0, pregateSkipped = 0,
         admitted = 0, evicted = 0, readmitted = 0, rejectedFull = 0,
         reaped = 0, peerFrames = 0, recoverMsInFrames = 0, keyframes = 0,
         mapRecordMs = 0, passes = 0;
  std::array<double, kTrackerOutcomeCount> outcomes{};
  // Probes (benchmark-side timed calls outside the timed op).
  double egoFeatMs = 0, egoFeatCalls = 0, decodeMs = 0, decodeCalls = 0,
         payloadBytes = 0, payloads = 0, peekUs = 0, peekCalls = 0;

  void addRecovery(const PoseRecoveryReport& r) {
    recovers += 1;
    msMim += r.msMim;
    msKeypoints += r.msKeypoints;
    msDescriptors += r.msDescriptors;
    msMatching += r.msMatching;
    msRansacBv += r.msRansacBv;
    msIcpPolish += r.msIcpPolish;
    msStage2 += r.msStage2;
    msTotal += r.msTotal;
    yawCandidates += r.yawCandidates;
    keypoints += 0.5 * (r.keypointsEgo + r.keypointsOther);
    matches += r.descriptorMatches;
    ransacIterations += static_cast<double>(r.ransacBvIterations);
    inliersBv += r.inliersBv;
    successes += r.success ? 1 : 0;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- results -------------------------------------------------------------

struct RunState {
  bool correct = true;
  std::vector<std::string> errors;
  int attempted = 0;
  int failed = 0;
  void fail(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
    correct = false;
  }
};

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string poseString(const Pose2& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g", p.t.x, p.t.y, p.theta);
  return buf;
}

bool poseWithinTruth(const Pose2& estimate, const Pose2& truth) {
  const PoseError e = poseError(estimate, truth);
  return e.translation <= kMaxPoseErrorM && e.rotationDeg <= kMaxPoseErrorDeg;
}

/// recover() calls one tracker step made (0 when no step ran).
int recoverCalls(const service::SessionFrameResult& r) {
  const bool stepped = r.received && !r.pregateSkipped && !r.shed &&
                       !r.quarantined && !r.replayRejected &&
                       !r.payloadMismatch &&
                       r.decodeError == wire::DecodeError::None;
  if (!stepped) return 0;
  const TrackerReport& t = r.report;
  return 1 + (t.fastPathAttempted && !t.fastPathAccepted ? 1 : 0) +
         (t.relaxedAttempted ? 1 : 0);
}

/// The input was refused a session (full table or duplicate sender).
bool isRejected(const service::SessionFrameResult& r) {
  return r.admission == service::SessionAdmission::RejectedFull ||
         r.admission == service::SessionAdmission::RejectedDuplicate;
}

// ---- workloads -----------------------------------------------------------

/// Input generation (untimed, part of the load generator): run `task(j)`
/// for j in [0, n) on every hardware thread. The generators are const and
/// order-independent, so the inputs do not depend on the schedule. Plain
/// threads, each serial inside, keep the library's worker pool unstarted
/// until the system's own set-up.
template <class Task>
void generateInParallel(int n, const Task& task) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::clamp(hw, 1, std::max(n, 1));
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < workers; ++t)
      threads.emplace_back([&, t] {
        ThreadLimit serial(1);
        try {
          for (int j = next++; j < n; j = next++) task(j);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Probe: time wire::peek over every payload of the op (one span).
void probePeeks(const std::vector<const std::vector<std::uint8_t>*>& payloads,
                SpanLog& log, LayerAcc& acc, RunState& st) {
  ScopedSpan s(log, "probe.wire.peek");
  const auto p0 = Clock::now();
  for (const std::vector<std::uint8_t>* payload : payloads)
    if (wire::peek(*payload).error != wire::DecodeError::None)
      st.fail("probe peek failed");
  acc.peekUs += msBetween(p0, Clock::now()) * 1e3;
  acc.peekCalls += static_cast<double>(payloads.size());
}

/// One workload: a system under test, a fixed pass of operations over
/// pre-generated inputs, and the checks/accounts of each operation.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int threads() const = 0;
  /// Generate inputs (minimal: only what the warm-up op needs) and set the
  /// system up; returns set-up seconds, which exclude input generation.
  virtual double setUp(bool minimal) = 0;
  [[nodiscard]] virtual std::size_t opsPerPass() const = 0;
  /// Seconds one pass takes on the reference host (4-CPU Xeon, Release):
  /// sizes the fixed number of passes a run replays.
  [[nodiscard]] virtual double nominalPassSeconds() const = 0;
  virtual void beginPass() = 0;
  /// Run op `i` of the pass; returns its latency (ms). `acc` is non-null in
  /// traced passes, where the op's accounts and probes are recorded.
  virtual double runOp(std::size_t i, SpanLog& log, LayerAcc* acc,
                       RunState& st) = 0;
  /// recover() calls made by the op just run.
  [[nodiscard]] virtual int lastRecoverCalls() const = 0;
  /// Deterministic digest of the pass just completed.
  virtual std::uint64_t endPass(LayerAcc* acc) = 0;
  /// Peer inputs of the last pass without a usable pose / its peer inputs.
  [[nodiscard]] virtual std::pair<int, int> poseFailures() const = 0;
  /// Peer inputs of the last pass, and those refused a session.
  [[nodiscard]] virtual double passInputs() const = 0;
  [[nodiscard]] virtual double passRejected() const { return 0.0; }
};

// pair_cold: one serial BBAlign::recover(other, ego, rng) per op, no hints,
// no ego features, round-robin over a fixed pool of distinct pairs.
class PairCold final : public Workload {
 public:
  explicit PairCold(std::uint64_t seed) : seed_(seed) {}
  int threads() const override { return 1; }

  double setUp(bool minimal) override {
    const auto t0 = Clock::now();
    aligner_ = std::make_unique<BBAlign>();
    const auto t1 = Clock::now();
    DatasetConfig dc;
    dc.seed = kPairSceneSeed;
    const DatasetGenerator gen(dc);
    const int wanted = minimal ? 1 : kPairPoolSize;
    for (int base = 0; static_cast<int>(pairs_.size()) < wanted;
         base += wanted) {
      std::vector<std::optional<Pair>> batch(static_cast<std::size_t>(wanted));
      generateInParallel(wanted, [&](int j) {
        std::optional<FramePair> fp = gen.generatePair(base + j);
        if (!fp) return;
        batch[static_cast<std::size_t>(j)] =
            Pair{aligner_->makeCarData(fp->egoCloud, fp->egoDets),
                 aligner_->makeCarData(fp->otherCloud, fp->otherDets),
                 fp->gtOtherToEgo, base + j};
      });
      for (auto& p : batch)
        if (p && static_cast<int>(pairs_.size()) < wanted)
          pairs_.push_back(std::move(*p));
    }
    order_.resize(pairs_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    Rng shuffle(seed_);
    std::shuffle(order_.begin(), order_.end(), shuffle.engine());
    const auto t2 = Clock::now();
    Rng rng = pairRng(pairs_[0]);
    (void)aligner_->recover(pairs_[0].other, pairs_[0].ego, rng);
    const auto t3 = Clock::now();
    return (msBetween(t0, t1) + msBetween(t2, t3)) * 1e-3;
  }

  std::size_t opsPerPass() const override { return pairs_.size(); }
  double nominalPassSeconds() const override { return 4.5; }

  void beginPass() override {
    digest_ = fnv1a("pair_cold");
    fails_ = 0;
  }

  double runOp(std::size_t i, SpanLog& log, LayerAcc* acc,
               RunState& st) override {
    const Pair& p = pairs_[order_[i]];
    Rng rng = pairRng(p);
    PoseRecoveryReport rep;
    PoseRecoveryResult r;
    const auto t0 = Clock::now();
    {
      ScopedSpan op(log, "op.pair_cold");
      ScopedSpan call(log, "core.recover");
      r = aligner_->recover(p.other, p.ego, rng, &rep);
    }
    const double ms = msBetween(t0, Clock::now());
    if (rep.success != r.success) st.fail("report disagrees with result");
    if (!r.success || !poseWithinTruth(r.estimate, p.gt)) ++fails_;
    digest_ = fnv1a(rep.toJson(false), digest_);
    digest_ = fnv1a(poseString(r.estimate), digest_);
    if (acc) acc->addRecovery(rep);
    return ms;
  }

  int lastRecoverCalls() const override { return 1; }

  std::uint64_t endPass(LayerAcc* acc) override {
    if (acc) acc->passes += 1;
    return digest_;
  }

  std::pair<int, int> poseFailures() const override {
    return {fails_, static_cast<int>(pairs_.size())};
  }
  /// Each recover serves one peer input (the other vehicle's scan), and
  /// no admission control stands in front of it.
  double passInputs() const override {
    return static_cast<double>(pairs_.size());
  }

 private:
  struct Pair {
    CarPerceptionData ego;
    CarPerceptionData other;
    Pose2 gt;
    int index = 0;  ///< DatasetGenerator pair index
  };
  /// Each pair's RANSAC stream is fixed, so its outcome is too.
  static Rng pairRng(const Pair& p) {
    return Rng(kPairSceneSeed * 1000003ULL +
               static_cast<std::uint64_t>(p.index));
  }
  std::uint64_t seed_;
  std::unique_ptr<BBAlign> aligner_;
  std::vector<Pair> pairs_;
  std::vector<std::size_t> order_;  ///< presentation order (from --seed)
  std::uint64_t digest_ = 0;
  int fails_ = 0;
};

service::ServiceConfig streamServiceConfig() {
  service::ServiceConfig cfg;
  cfg.seed = kStreamSceneSeed;
  cfg.budget.maxRecoversPerFrame = kRecoverBudget;
  return cfg;
}

// fleet_stream: one ego frame per op — makeCarData(ego), recordEgoKeyframe,
// processFrame over 6 in-range peers' real encoded scans — on a fresh
// service and keyframe store per pass.
class FleetStream final : public Workload {
 public:
  int threads() const override { return kStreamThreads; }

  double setUp(bool minimal) override {
    const auto t0 = Clock::now();
    svc_ = std::make_unique<service::CooperationService>(
        streamServiceConfig());
    store_ = std::make_unique<map::KeyframeStore>();
    svc_->attachMapStore(store_.get());
    aligner_ = std::make_unique<BBAlign>(svc_->config().tracker.aligner);
    const auto t1 = Clock::now();

    SequenceConfig sc;
    sc.seed = kStreamSceneSeed;
    sc.frames = kStreamFrames;
    sc.scenario.cooperativePeers = kStreamPeers;
    const SequenceGenerator gen(sc);
    const World& world = gen.world();
    const Trajectory& egoTraj =
        world.vehicleById(world.egoVehicleId).trajectory;
    // Scans and BV images in parallel (one task per frame and role), then
    // the serial sendFrame encoding with truthful claims and a rising
    // frame index.
    const int frames = minimal ? 1 : kStreamFrames;
    constexpr int kRoles = 1 + kStreamPeers;
    frames_.resize(static_cast<std::size_t>(frames));
    std::vector<CarPerceptionData> peerData(
        static_cast<std::size_t>(frames * kStreamPeers));
    std::vector<double> times(static_cast<std::size_t>(frames));
    generateInParallel(frames * kRoles, [&](int j) {
      const int k = j / kRoles;
      const int role = j % kRoles;
      Frame& f = frames_[static_cast<std::size_t>(k)];
      if (role == 0) {
        StreamFrame sf = gen.frame(k);
        f.egoCloud = std::move(sf.egoCloud);
        f.egoDets = std::move(sf.egoDets);
        f.egoGlobal = egoTraj.pose(sf.time);
        times[static_cast<std::size_t>(k)] = sf.time;
        return;
      }
      const PeerObservation obs = gen.peerObservation(k, role - 1);
      peerData[static_cast<std::size_t>(k * kStreamPeers + role - 1)] =
          aligner_->makeCarData(obs.cloud, obs.dets);
    });
    for (int k = 0; k < frames; ++k) {
      Frame& f = frames_[static_cast<std::size_t>(k)];
      const auto micros = static_cast<std::int64_t>(
          std::llround(times[static_cast<std::size_t>(k)] * 1e6));
      // Peers in id order. The input order sets which session task each
      // of the 2 threads takes next, and so the frame's makespan, though
      // not its results: it stays fixed so that it is not a source of
      // latency spread from seed to seed.
      for (int p = 0; p < kStreamPeers; ++p) {
        const double t = times[static_cast<std::size_t>(k)];
        const Pose2 gt = gen.gtPeerToEgoAt(p, t, t);
        f.payloads.push_back(svc_->sendFrame(
            peerData[static_cast<std::size_t>(k * kStreamPeers + p)],
            static_cast<std::uint64_t>(p + 1),
            static_cast<std::uint32_t>(k + 1), nullptr, &gt, micros));
        f.gt.push_back(gt);
      }
      for (std::size_t i = 0; i < f.payloads.size(); ++i)
        f.inputs.push_back(
            {static_cast<std::uint64_t>(i + 1), &f.payloads[i]});
    }

    const auto t2 = Clock::now();
    const CarPerceptionData ego =
        aligner_->makeCarData(frames_[0].egoCloud, frames_[0].egoDets);
    (void)svc_->recordEgoKeyframe(ego, frames_[0].egoGlobal);
    (void)svc_->processFrame(ego, frames_[0].inputs);
    const auto t3 = Clock::now();
    return (msBetween(t0, t1) + msBetween(t2, t3)) * 1e-3;
  }

  std::size_t opsPerPass() const override { return frames_.size(); }
  double nominalPassSeconds() const override { return 8.0; }

  void beginPass() override {
    svc_ = std::make_unique<service::CooperationService>(
        streamServiceConfig());
    store_ = std::make_unique<map::KeyframeStore>();
    svc_->attachMapStore(store_.get());
    probeStore_ = std::make_unique<map::KeyframeStore>();
    fails_ = 0;
    peerFrames_ = 0;
    rejected_ = 0;
  }

  double runOp(std::size_t i, SpanLog& log, LayerAcc* acc,
               RunState& st) override {
    const Frame& f = frames_[i];
    std::vector<service::SessionFrameResult> results;
    CarPerceptionData ego;
    map::InsertResult recorded;
    const auto t0 = Clock::now();
    {
      ScopedSpan op(log, "op.fleet_stream");
      {
        ScopedSpan s(log, "bev.makeCarData");
        ego = aligner_->makeCarData(f.egoCloud, f.egoDets);
      }
      {
        ScopedSpan s(log, "map.recordEgoKeyframe");
        recorded = svc_->recordEgoKeyframe(ego, f.egoGlobal);
      }
      {
        ScopedSpan s(log, "service.processFrame");
        results = svc_->processFrame(ego, f.inputs);
      }
    }
    const double ms = msBetween(t0, Clock::now());
    if (results.size() != f.inputs.size()) {
      st.fail("processFrame returned a result count unlike its inputs");
      lastCalls_ = 0;
      return ms;
    }
    lastCalls_ = 0;
    double recoverMs = 0.0;
    std::vector<int> calls(results.size());
    for (std::size_t p = 0; p < results.size(); ++p) {
      const service::SessionFrameResult& r = results[p];
      calls[p] = recoverCalls(r);
      lastCalls_ += calls[p];
      ++peerFrames_;
      if (isRejected(r)) ++rejected_;
      if (!r.track.poseValid || !poseWithinTruth(r.track.pose, f.gt[p]))
        ++fails_;
      if (!acc) continue;
      acc->peerFrames += 1;
      acc->outcomes[static_cast<std::size_t>(r.track.outcome)] += 1;
      if (r.shed) acc->shed += 1;
      if (r.pregateSkipped) acc->pregateSkipped += 1;
      if (r.received) {
        acc->payloadBytes += static_cast<double>(r.payloadBytes);
        acc->payloads += 1;
      }
      if (calls[p] > 0) {
        acc->slots += 1;
        acc->primaryCalls += 1;
        acc->addRecovery(r.report.recovery);
        recoverMs += r.report.recovery.msTotal;
        if (r.report.relaxedAttempted) {
          acc->relaxedCalls += 1;
          acc->addRecovery(r.report.relaxedRecovery);
          recoverMs += r.report.relaxedRecovery.msTotal;
        }
      }
    }
    if (acc) {
      acc->frames += 1;
      acc->inputs += static_cast<double>(f.inputs.size());
      // recordEgoKeyframe runs first in the frame, so it computes the
      // frame's ego features whenever it reaches the store; processFrame
      // then reuses them from the frame-scoped cache.
      const bool egoComputed = recorded.inserted || recorded.dedupSkipped;
      acc->egoComputations += egoComputed ? 1 : 0;
      acc->recoverMsInFrames += recoverMs;
      // Probes, outside the timed op: the ego feature pipeline the frame
      // shared, the store insert it fed, the decode of every granted
      // payload, and the wire peek.
      std::shared_ptr<const EgoFeatures> feats;
      {
        ScopedSpan s(log, "probe.core.computeEgoFeatures");
        const auto p0 = Clock::now();
        feats = aligner_->computeEgoFeatures(ego);
        acc->egoFeatMs += msBetween(p0, Clock::now());
        acc->egoFeatCalls += 1;
      }
      // The map layer's own share of recordEgoKeyframe: the same insert
      // into a mirror store that has seen the same inserts this pass.
      if (egoComputed) {
        ScopedSpan s(log, "probe.map.insert");
        const auto p0 = Clock::now();
        const map::InsertResult mirrored =
            probeStore_->insert(f.egoGlobal, feats->descriptors, ego);
        acc->mapRecordMs += msBetween(p0, Clock::now());
        if (mirrored.inserted != recorded.inserted ||
            mirrored.dedupSkipped != recorded.dedupSkipped)
          st.fail("mirror store insert disagrees with recordEgoKeyframe");
      }
      {
        ScopedSpan s(log, "probe.wire.decode");
        const auto p0 = Clock::now();
        for (std::size_t p = 0; p < results.size(); ++p) {
          if (calls[p] == 0) continue;
          if (wire::decode(f.payloads[p]).error != wire::DecodeError::None)
            st.fail("probe decode failed");
          acc->decodeCalls += 1;
        }
        acc->decodeMs += msBetween(p0, Clock::now());
      }
      std::vector<const std::vector<std::uint8_t>*> payloads;
      for (const auto& payload : f.payloads) payloads.push_back(&payload);
      probePeeks(payloads, log, *acc, st);
    }
    return ms;
  }

  int lastRecoverCalls() const override { return lastCalls_; }

  std::uint64_t endPass(LayerAcc* acc) override {
    const service::ServiceReport rep = svc_->report();
    if (acc) {
      acc->passes += 1;
      acc->keyframes += static_cast<double>(store_->size());
    }
    std::uint64_t h = fnv1a(rep.toJson());
    return fnv1a(std::to_string(store_->size()), h);
  }

  std::pair<int, int> poseFailures() const override {
    return {fails_, peerFrames_};
  }
  double passInputs() const override {
    return static_cast<double>(frames_.size() * kStreamPeers);
  }
  double passRejected() const override { return rejected_; }

 private:
  struct Frame {
    PointCloud egoCloud;
    Detections egoDets;
    Pose2 egoGlobal;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<Pose2> gt;
    std::vector<service::PeerFrameInput> inputs;
  };
  std::unique_ptr<service::CooperationService> svc_;
  std::unique_ptr<map::KeyframeStore> store_;
  std::unique_ptr<map::KeyframeStore> probeStore_;  ///< mirrors store_
  std::unique_ptr<BBAlign> aligner_;
  std::vector<Frame> frames_;
  int lastCalls_ = 0;
  int fails_ = 0;
  int peerFrames_ = 0;
  int rejected_ = 0;
};

service::ServiceConfig churnServiceConfig(std::uint64_t seed) {
  service::ServiceConfig cfg;
  cfg.seed = seed;
  cfg.maxSessions = kChurnSlots;
  // bench/fleet_churn's schedule: one tolerated silent frame keeps both
  // eviction and the reaper exercised under full-table pressure.
  cfg.lifecycle.maxSilentFrames = 1;
  cfg.budget.maxRecoversPerFrame = kRecoverBudget;
  return cfg;
}

// fleet_churn: one processFrame per op; 256 peers churn through a 64-slot
// table, every claim beyond the pre-gate range, so no recover() runs.
class FleetChurn final : public Workload {
 public:
  explicit FleetChurn(std::uint64_t seed) : seed_(seed) {}
  int threads() const override { return 1; }

  double setUp(bool minimal) override {
    const auto t0 = Clock::now();
    svc_ = std::make_unique<service::CooperationService>(
        churnServiceConfig(seed_));
    aligner_ = std::make_unique<BBAlign>(svc_->config().tracker.aligner);
    const auto t1 = Clock::now();

    // Payload content is the fixed template pair (bench/fleet_churn's); the
    // fleet world from --seed supplies only the claims.
    DatasetConfig dc;
    dc.seed = kPairSceneSeed;
    const std::optional<FramePair> pair =
        DatasetGenerator(dc).generatePair(0);
    if (!pair) throw std::runtime_error("template pair was filtered out");
    ego_ = aligner_->makeCarData(pair->egoCloud, pair->egoDets);
    const CarPerceptionData other =
        aligner_->makeCarData(pair->otherCloud, pair->otherDets);
    SequenceConfig sc;
    sc.seed = seed_;
    sc.frames = 1;
    sc.scenario.cooperativePeers = kChurnWorldPeers;
    const SequenceGenerator gen(sc);
    for (int p = 0; p < gen.peerCount() &&
                    static_cast<int>(payloads_.size()) < kChurnPeers;
         ++p) {
      const Pose2 claim = gen.gtPeerToEgoAt(p, 0.0, 0.0);
      if (claim.t.norm() <= kChurnMinClaimRangeM) continue;
      const auto id = static_cast<std::uint64_t>(p + 1);
      ids_.push_back(id);
      payloads_.push_back(svc_->sendFrame(other, id, 1, nullptr, &claim));
    }
    if (static_cast<int>(payloads_.size()) < kChurnPeers)
      throw std::runtime_error("fleet world has too few far peers");

    FaultConfig churn;
    churn.seed = seed_;
    churn.churn.enable = true;
    churn.churn.dwellMinFrames = 4;
    churn.churn.dwellMaxFrames = 12;
    churn.churn.gapMinFrames = 2;
    churn.churn.gapMaxFrames = 8;
    churn.churn.silenceProb = 0.05;
    const int frames = minimal ? 1 : kChurnFrames;
    for (int k = 0; k < frames; ++k) {
      std::vector<service::PeerFrameInput> in;
      for (std::size_t p = 0; p < ids_.size(); ++p) {
        const ChurnState s = churnState(churn, k, ids_[p]);
        if (s == ChurnState::Absent) continue;
        in.push_back(
            {ids_[p], s == ChurnState::Silent ? nullptr : &payloads_[p]});
      }
      frames_.push_back(std::move(in));
    }

    const auto t2 = Clock::now();
    (void)svc_->processFrame(ego_, frames_[0]);
    const auto t3 = Clock::now();
    return (msBetween(t0, t1) + msBetween(t2, t3)) * 1e-3;
  }

  std::size_t opsPerPass() const override { return frames_.size(); }
  double nominalPassSeconds() const override { return 0.25; }

  void beginPass() override {
    svc_ = std::make_unique<service::CooperationService>(
        churnServiceConfig(seed_));
    inputs_ = 0;
    rejected_ = 0;
    fails_ = 0;
  }

  double runOp(std::size_t i, SpanLog& log, LayerAcc* acc,
               RunState& st) override {
    const std::vector<service::PeerFrameInput>& in = frames_[i];
    std::vector<service::SessionFrameResult> results;
    const auto t0 = Clock::now();
    {
      ScopedSpan op(log, "op.fleet_churn");
      ScopedSpan s(log, "service.processFrame");
      results = svc_->processFrame(ego_, in);
    }
    const double ms = msBetween(t0, Clock::now());
    lastCalls_ = 0;
    if (results.size() != in.size()) {
      st.fail("processFrame returned a result count unlike its inputs");
      return ms;
    }
    inputs_ += static_cast<double>(in.size());
    for (const service::SessionFrameResult& r : results) {
      lastCalls_ += recoverCalls(r);
      const bool rejected = isRejected(r);
      if (rejected) rejected_ += 1;
      // Payloads are template scans under far claims: no pose can be
      // checked against truth, and none is expected, so any input that
      // leaves without a pose (all of them) counts as failed.
      if (rejected || !r.track.poseValid) ++fails_;
      if (!acc) continue;
      acc->peerFrames += rejected ? 0 : 1;
      if (!rejected)
        acc->outcomes[static_cast<std::size_t>(r.track.outcome)] += 1;
      if (r.pregateSkipped) acc->pregateSkipped += 1;
      if (r.shed) acc->shed += 1;
      if (r.admission == service::SessionAdmission::Admitted ||
          r.admission == service::SessionAdmission::AdmittedEvicting)
        acc->admitted += 1;
      if (r.admission == service::SessionAdmission::AdmittedEvicting)
        acc->evicted += 1;
      if (r.admission == service::SessionAdmission::RejectedFull)
        acc->rejectedFull += 1;
      if (r.readmission) acc->readmitted += 1;
      if (r.received) {
        acc->payloadBytes += static_cast<double>(r.payloadBytes);
        acc->payloads += 1;
      }
    }
    if (lastCalls_ != 0) st.fail("fleet_churn made a recover() call");
    if (acc) {
      acc->frames += 1;
      acc->inputs += static_cast<double>(in.size());
      std::vector<const std::vector<std::uint8_t>*> payloads;
      for (const service::PeerFrameInput& pi : in)
        if (pi.payload != nullptr) payloads.push_back(pi.payload);
      probePeeks(payloads, log, *acc, st);
    }
    return ms;
  }

  int lastRecoverCalls() const override { return lastCalls_; }

  std::uint64_t endPass(LayerAcc* acc) override {
    const service::ServiceReport rep = svc_->report();
    if (acc) {
      acc->passes += 1;
      for (const service::SessionStats& s : rep.sessions)
        acc->reaped += s.reaps;
    }
    return fnv1a(rep.toJson());
  }

  std::pair<int, int> poseFailures() const override {
    return {fails_, static_cast<int>(inputs_)};
  }
  double passInputs() const override { return inputs_; }
  double passRejected() const override { return rejected_; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<service::CooperationService> svc_;
  std::unique_ptr<BBAlign> aligner_;
  CarPerceptionData ego_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<std::vector<service::PeerFrameInput>> frames_;
  int lastCalls_ = 0;
  double inputs_ = 0;
  double rejected_ = 0;
  int fails_ = 0;
};

// ---- harness -------------------------------------------------------------

/// Samples and accounts of a run's passes.
struct Phase {
  std::vector<double> opMs;    ///< every sample, in run order
  std::vector<double> bestMs;  ///< per op of the pass: best over the passes
  std::vector<std::uint64_t> digests;
  std::map<int, int> callsPerOp;  ///< histogram over the first pass
  int passes = 0;
  double inputs = 0, rejected = 0;
  int poseFails = 0, poseAttempts = 0;
};

/// Passes for a phase of `seconds`: as many as fit at the reference speed,
/// and enough to leave `minOps` samples. Fixed per (workload, seconds), so
/// two runs of the same code do the same work.
int passesFor(const Workload& w, double seconds, std::size_t minOps,
              int minPasses) {
  const auto ops = static_cast<double>(w.opsPerPass());
  const int forOps =
      static_cast<int>(std::ceil(static_cast<double>(minOps) / ops));
  const int forTime =
      static_cast<int>(std::floor(seconds / w.nominalPassSeconds()));
  return std::max({minPasses, forOps, forTime});
}

/// Run one whole pass, appending its samples and accounts to `ph`.
void runPass(Workload& w, SpanLog& log, LayerAcc* acc, RunState& st,
             std::uint64_t& opId, Phase& ph) {
  w.beginPass();
  ph.bestMs.resize(w.opsPerPass(), HUGE_VAL);
  for (std::size_t i = 0; i < w.opsPerPass(); ++i) {
    log.setOp(++opId);
    st.attempted += 1;
    try {
      const double ms = w.runOp(i, log, acc, st);
      ph.opMs.push_back(ms);
      ph.bestMs[i] = std::min(ph.bestMs[i], ms);
    } catch (const std::exception& e) {
      st.failed += 1;
      st.fail(std::string("op threw: ") + e.what());
      continue;
    }
    if (ph.passes == 0) ph.callsPerOp[w.lastRecoverCalls()] += 1;
  }
  ph.digests.push_back(w.endPass(acc));
  ph.passes += 1;
  ph.inputs += w.passInputs();
  ph.rejected += w.passRejected();
  const auto [fails, attempts] = w.poseFailures();
  ph.poseFails += fails;
  ph.poseAttempts += attempts;
}

void checkDigests(const std::vector<std::uint64_t>& digests, RunState& st) {
  for (std::uint64_t d : digests)
    if (d != digests.front()) st.fail("pass digest differs from pass 1");
}

/// Linear-interpolated quantile of a sample set.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The per-op best latencies of a phase (ops that never completed are
/// left out).
std::vector<double> bestLatencies(const Phase& ph) {
  std::vector<double> v;
  for (double ms : ph.bestMs)
    if (std::isfinite(ms)) v.push_back(ms);
  return v;
}

std::size_t countAbove(const std::vector<double>& v, double x) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void putMetric(std::ostringstream& o, bool& first, const std::string& name,
               double value, const char* unit) {
  o << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << num(value)
    << ",\"unit\":\"" << unit << "\"}";
  first = false;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setupOnly = false;
  std::string traceOut;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pair_cold|fleet_stream|fleet_churn"
               " [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]"
               " [--setup-only]\n");
  return 2;
}

/// The tail percentile a workload's run must leave 10 samples beyond:
/// p90 on fleet_churn, p75 on the pose workloads, whose runs hold too few
/// ops for p90. Every workload reports both.
bool tailIsP90(const std::string& workload) {
  return workload == "fleet_churn";
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w;
  if (opt.workload == "pair_cold") {
    w = std::make_unique<PairCold>(opt.seed);
  } else if (opt.workload == "fleet_stream") {
    w = std::make_unique<FleetStream>();
  } else if (opt.workload == "fleet_churn") {
    w = std::make_unique<FleetChurn>(opt.seed);
  } else {
    return usage();
  }
  ThreadLimit limit(w->threads());

  const double setupS = w->setUp(opt.setupOnly);
  if (opt.setupOnly) {
    std::printf("{\"setup_s\":%s}\n", num(setupS).c_str());
    return 0;
  }

  RunState st;
  SpanLog untracedLog(false);
  std::uint64_t opId = 0;
  const bool p90 = tailIsP90(opt.workload);
  const std::size_t minOps = p90 ? 100 : 40;
  std::ostringstream metrics;
  bool first = true;
  Phase main;
  if (!opt.trace) {
    const int passes = passesFor(*w, opt.seconds, minOps, 2);
    for (int p = 0; p < passes; ++p)
      runPass(*w, untracedLog, nullptr, st, opId, main);
    checkDigests(main.digests, st);
    // Latencies are each op's best over the run's passes: the same work
    // repeated, with the host's sub-second contention bursts filtered out.
    const std::vector<double> best = bestLatencies(main);
    const double p50 = quantile(best, 0.5);
    const double p75 = quantile(best, 0.75);
    const double p90th = quantile(best, 0.9);
    if (countAbove(main.opMs, p90 ? p90th : p75) < 10)
      st.fail("fewer than 10 samples beyond the tail percentile");
    std::fprintf(stderr,
                 "perfbench: all samples p50 %.4f ms, p75 %.4f ms, "
                 "p90 %.4f ms (%zu samples); per-op best p50 %.4f ms, "
                 "p75 %.4f ms, p90 %.4f ms\n",
                 quantile(main.opMs, 0.5), quantile(main.opMs, 0.75),
                 quantile(main.opMs, 0.9), main.opMs.size(), p50, p75, p90th);
    const double passS = std::accumulate(best.begin(), best.end(), 0.0) * 1e-3;
    putMetric(metrics, first, "latency_ms_p50", p50, "ms");
    putMetric(metrics, first, "latency_ms_p75", p75, "ms");
    putMetric(metrics, first, "latency_ms_p90", p90th, "ms");
    putMetric(metrics, first, "peer_inputs_per_core_s",
              ratio(main.inputs / main.passes, passS * w->threads()), "1/s");
    putMetric(metrics, first, "pose_fail_ratio",
              ratio(main.poseFails, main.poseAttempts), "ratio");
    putMetric(metrics, first, "admit_ratio",
              ratio(main.inputs - main.rejected, main.inputs), "ratio");
    putMetric(metrics, first, "peak_rss_mb", peakRssMb(), "MB");
  } else {
    // Untraced passes (overhead baseline and digest reference) alternate
    // with traced passes, which alone feed the per-layer metrics; the
    // alternation keeps host drift out of trace.overhead_pct.
    const int passes = passesFor(*w, opt.seconds / 2, minOps / 2, 1);
    Phase base;
    SpanLog log(true);
    LayerAcc a;
    for (int p = 0; p < passes; ++p) {
      runPass(*w, untracedLog, nullptr, st, opId, base);
      runPass(*w, log, &a, st, opId, main);
    }
    checkDigests(base.digests, st);
    if (main.digests != base.digests)
      st.fail("traced digest differs from untraced digest");
    if (!opt.traceOut.empty()) log.write(opt.traceOut);
    for (const auto& [layer, row] : log.summary())
      std::fprintf(stderr,
                   "span %-32s n=%-7.0f total=%10.3f ms self=%10.3f ms\n",
                   layer.c_str(), row[0], row[1], row[2]);

    const double n = a.recovers;
    const double stagesMs = a.msMim + a.msKeypoints + a.msDescriptors +
                            a.msMatching + a.msRansacBv + a.msIcpPolish +
                            a.msStage2;
    const double frames = a.frames;
    const double kin = a.inputs / 1000.0;
    const double serviceMs = log.totalMs("service.processFrame");
    auto put = [&](const std::string& name, double v, const char* unit) {
      putMetric(metrics, first, name, v, unit);
    };
    put("mim.ms_per_recover", ratio(a.msMim, n), "ms");
    put("descriptors.ms_per_recover", ratio(a.msDescriptors, n), "ms");
    put("descriptors.yaw_candidates", ratio(a.yawCandidates, n), "count");
    put("keypoints.ms_per_recover", ratio(a.msKeypoints, n), "ms");
    put("keypoints.per_image", ratio(a.keypoints, n), "count");
    put("match.ms_per_recover", ratio(a.msMatching, n), "ms");
    put("match.matches_per_recover", ratio(a.matches, n), "count");
    put("ransac_bv.ms_per_recover", ratio(a.msRansacBv, n), "ms");
    put("ransac_bv.iterations_per_recover", ratio(a.ransacIterations, n),
        "count");
    put("ransac_bv.inlier_ratio", ratio(a.inliersBv, a.matches), "ratio");
    put("icp_polish.ms_per_recover", ratio(a.msIcpPolish, n), "ms");
    put("stage2.ms_per_recover", ratio(a.msStage2, n), "ms");
    put("recover.ms", ratio(a.msTotal, n), "ms");
    put("recover.self_ms", ratio(a.msTotal - stagesMs, n), "ms");
    put("recover.success_ratio", ratio(a.successes, n), "ratio");
    put("ego_features.ms_per_frame", ratio(a.egoFeatMs, a.egoFeatCalls), "ms");
    put("ego_features.reuse", ratio(a.primaryCalls + a.relaxedCalls,
                                    a.egoComputations),
        "count");
    put("bev.ms_per_frame", ratio(log.totalMs("bev.makeCarData"), frames),
        "ms");
    put("tracker.recover_calls_per_frame",
        ratio(a.primaryCalls + a.relaxedCalls, frames), "count");
    put("tracker.relaxed_ratio", ratio(a.relaxedCalls, a.primaryCalls),
        "ratio");
    const std::array<std::pair<const char*, TrackerOutcome>, 6> outcomes{{
        {"recovered", TrackerOutcome::Recovered},
        {"relaxed", TrackerOutcome::RecoveredRelaxed},
        {"extrapolated", TrackerOutcome::Extrapolated},
        {"held", TrackerOutcome::Held},
        {"track_lost", TrackerOutcome::TrackLost},
        {"bootstrapping", TrackerOutcome::Bootstrapping},
    }};
    for (const auto& [name, outcome] : outcomes)
      put(std::string("tracker.outcome.") + name,
          ratio(a.outcomes[static_cast<std::size_t>(outcome)], a.peerFrames),
          "ratio");
    put("wire.decode_ms_per_msg", ratio(a.decodeMs, a.decodeCalls), "ms");
    put("wire.bytes_per_msg", ratio(a.payloadBytes, a.payloads), "B");
    put("wire.peek_us_per_msg", ratio(a.peekUs, a.peekCalls), "us");
    put("service.us_per_input", ratio(serviceMs * 1e3, a.inputs), "us");
    put("service.recover_slots_per_frame", ratio(a.slots, frames), "count");
    put("service.shed_per_frame", ratio(a.shed, frames), "count");
    put("service.pregate_skipped_per_frame", ratio(a.pregateSkipped, frames),
        "count");
    put("session.admitted_per_kinput", ratio(a.admitted, kin), "count");
    put("session.evicted_per_kinput", ratio(a.evicted, kin), "count");
    put("session.reaped_per_kinput", ratio(a.reaped, kin), "count");
    put("session.readmitted_per_kinput", ratio(a.readmitted, kin), "count");
    put("session.rejected_full_per_kinput", ratio(a.rejectedFull, kin),
        "count");
    put("parallel.efficiency",
        ratio(a.recoverMsInFrames, serviceMs * w->threads()), "ratio");
    put("map.record_ms_per_frame", ratio(a.mapRecordMs, frames), "ms");
    put("map.keyframes", ratio(a.keyframes, a.passes), "count");
    const double baseP50 = quantile(bestLatencies(base), 0.5);
    put("trace.overhead_pct",
        ratio(quantile(bestLatencies(main), 0.5) - baseP50, baseP50) * 100.0,
        "%");
  }

  // Work-composition record: deterministic for a given seed and code.
  std::printf("{\"composition\":{\"ops\":%zu,\"passes\":%d,"
              "\"ops_per_pass\":%zu,"
              "\"recover_calls_per_op\":{",
              main.opMs.size(), main.passes, w->opsPerPass());
  bool firstBin = true;
  for (const auto& [calls, ops] : main.callsPerOp) {
    std::printf("%s\"%d\":%d", firstBin ? "" : ",", calls, ops);
    firstBin = false;
  }
  std::printf("},\"pose_failures\":%d,\"pose_attempts\":%d,"
              "\"digest\":\"%016llx\"}}\n",
              main.poseFails, main.poseAttempts,
              static_cast<unsigned long long>(
                  main.digests.empty() ? 0 : main.digests.front()));
  std::printf("{\"context\":{\"workload\":\"%s\",\"threads\":%d,\"seed\":%llu,"
              "\"build_type\":\"%s\",\"seconds\":%s,\"trace\":%d}}\n",
              opt.workload.c_str(), w->threads(),
              static_cast<unsigned long long>(opt.seed), BBA_BUILD_TYPE,
              num(opt.seconds).c_str(), opt.trace ? 1 : 0);
  for (const std::string& e : st.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%d,\"failed\":%d,"
              "\"metrics\":{%s}}\n",
              st.correct ? "true" : "false", st.attempted, st.failed,
              metrics.str().c_str());
  return 0;
}

}  // namespace
}  // namespace bba::perfbench

int main(int argc, char** argv) {
  using bba::perfbench::Options;
  const std::string buildType = BBA_BUILD_TYPE;
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  sanitized = true;
#endif
#endif
  if (buildType != "release") {
    std::fprintf(stderr, "perfbench: refusing a '%s' build; build Release\n",
                 buildType.c_str());
    return 3;
  }
  if (sanitized) {
    std::fprintf(stderr, "perfbench: refusing a sanitizer build\n");
    return 3;
  }
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--setup-only") {
      opt.setupOnly = true;
      continue;
    }
    if (!(v = value())) return bba::perfbench::usage();
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v);
    else if (a == "--trace") opt.trace = std::atoi(v) != 0;
    else if (a == "--trace-out") opt.traceOut = v;
    else return bba::perfbench::usage();
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0))
    return bba::perfbench::usage();
  try {
    return bba::perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
