//===- perfbench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the benchmark shares: the host clock, the
/// per-operation check ledger, the per-round sample store host metrics
/// are reported from, and the Workload interface main() drives.
///
/// Two clocks are kept apart throughout. Host time (what the simulator
/// costs on this machine) is sampled once per round and reported as the
/// lower quartile over rounds. Simulated results and accuracy come from
/// the library's own model, are recorded in round 1, and every later
/// round must reproduce them bit for bit (a "determinism" check).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic host clock.
double hostSeconds();

/// Host seconds of the benchmark's reference loop: 5e5 random
/// read-modify-writes over a 16 MiB table. On the shared machines the
/// benchmark runs on, the simulator's speed drifts by up to 2x over
/// minutes with memory-system contention from other tenants; this loop
/// drifts with it (correlation 0.92 with 2048^2 runOptimized over 150
/// interleaved samples) while a pure ALU loop does not.
double calibrationSeconds();

/// Median of every calibrationSeconds() sample this process has taken.
double runCalibrationSeconds();

/// What calibrationSeconds() takes on a quiet machine (10 ns per access).
constexpr double ReferenceCalibrationSeconds = 0.005;

/// How much faster than the calibration loop the library's time grows as
/// the machine slows: log-log slopes of round time against the loop's
/// time were 1.3-2.8 over 60-120 s runs of each workload, and 1.5 left
/// less spread than 1.0 in all five of those runs.
constexpr double CalibrationExponent = 1.5;

/// Stopwatch in reference seconds: the timed section is bracketed by two
/// calibration loops and its host time rescaled to a machine on which the
/// loop takes ReferenceCalibrationSeconds. Host metrics are computed from
/// these, so that the runs of one build agree while the machine drifts.
class RefTimer {
public:
  RefTimer() : Cal0(calibrationSeconds()), T0(hostSeconds()) {}

  /// Reference seconds since construction (runs the closing calibration).
  double seconds() const {
    const double Raw = hostSeconds() - T0;
    const double Cal = 0.5 * (Cal0 + calibrationSeconds());
    return Raw * std::pow(ReferenceCalibrationSeconds / Cal,
                          CalibrationExponent);
  }

private:
  double Cal0;
  double T0;
};

/// Quantile \p Q of \p Values, interpolated linearly between the sorted
/// values (0 for an empty set).
double quantile(std::vector<double> Values, double Q);

/// Median of \p Values (0 for an empty set).
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// One printed metric.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};
using MetricList = std::vector<Metric>;

/// Attempted / failed operation accounting. An operation fails when any
/// of its checks fails (the failing check is named in the ledger) or
/// when the library reports it as not done (shed jobs).
class Ledger {
public:
  /// Scope of one operation (or of \p Weight operations that stand or
  /// fall together, such as the jobs of one fleet pass): checks recorded
  /// against it, counted when the scope ends.
  class Op {
  public:
    explicit Op(Ledger &L, std::uint64_t Weight = 1) : L(L), Weight(Weight) {}
    ~Op();
    Op(const Op &) = delete;
    Op &operator=(const Op &) = delete;

    /// Records check \p Name; returns \p Ok.
    bool check(bool Ok, const char *Name);

  private:
    Ledger &L;
    std::uint64_t Weight;
    bool Failed = false;
  };

  /// Counts \p Count operations that the library did not complete (not
  /// a wrong result: `correct` is unaffected).
  void notDone(std::uint64_t Count, const char *Why);
  /// Counts \p Count operations that completed and need no check.
  void done(std::uint64_t Count) { Attempted += Count; }

  std::uint64_t attempted() const { return Attempted; }
  std::uint64_t failed() const { return Failed; }
  /// False once any check has failed.
  bool correct() const { return Correct; }
  /// Failure counts by check name (and by not-done reason).
  const std::map<std::string, std::uint64_t> &failures() const {
    return Failures;
  }

private:
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;
  std::map<std::string, std::uint64_t> Failures;
};

/// Host-time samples, one value per round per key. Reported as the lower
/// quartile over the run's rounds: on a shared machine other tenants
/// only ever add time, in bursts that can cover half a run (of four 10 s
/// paper_tables runs, one had a median of 0.92 s per round against 0.70 s
/// for the other three), and the lower quartile passes over such a burst
/// where the median does not.
class RoundSamples {
public:
  void add(const std::string &Key, double Value) {
    Samples[Key].push_back(Value);
  }
  double lowerQuartile(const std::string &Key) const;
  /// One line per key: rounds, min, lower quartile, median and max (for
  /// stderr).
  void summarize(std::FILE *Out) const;

private:
  std::map<std::string, std::vector<double>> Samples;
};

/// Everything a round needs from main().
struct RunContext {
  /// 0-based index of the current round.
  unsigned Round = 0;
  Ledger Ops;
  RoundSamples Host;
  SpanRecorder Spans;
};

/// One benchmark workload: set-up, whole rounds of the same operations,
/// then the metrics of the operations that make up the workload.
///
/// Every workload reports the same end-to-end metrics, each defined over
/// its own operations: round_s (host), sim_gbps and sim_time (simulated).
class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs and state of a run from the seed. Called once per
  /// process; setup_s is the median over fresh set-up processes.
  virtual void setup(std::uint64_t Seed) = 0;

  /// Runs one whole round, checks its outputs and adds the round's timed
  /// reference seconds to Ctx.Host as "round_s".
  virtual void round(RunContext &Ctx) = 0;

  /// The simulated end-to-end metrics, sim_gbps and sim_time, from the
  /// round-1 results (untraced run).
  virtual void endToEnd(MetricList &Out) const = 0;

  /// Per-layer metrics of the layers this workload drives (traced run):
  /// runs the layer drives on the run's own inputs, attributes the
  /// recorded top-level spans and appends bench.unattributed_pct.
  virtual void perLayer(RunContext &Ctx, MetricList &Out) = 0;
};

Workload *makePaperTables();
Workload *makeLayoutStudy();
Workload *makeFleetServing();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
