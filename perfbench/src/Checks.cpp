//===- perfbench/src/Checks.cpp - Output checks ---------------------------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <cmath>

using namespace perfbench;

std::uint64_t perfbench::expectedPhaseBytes(std::uint64_t N, bool Real) {
  const std::uint64_t Complex = 2 * N * N * 8;
  return Real ? Complex / 2 : Complex;
}

bool perfbench::phaseBytesConserved(const fft3d::PhaseResult &P,
                                    std::uint64_t Expected) {
  return P.TotalPhaseBytes == Expected;
}

double perfbench::kernelDemandGBps(unsigned Lanes, double ClockMHz) {
  return static_cast<double>(Lanes) * ClockMHz * 1e6 * 8.0 * 2.0 / 1e9;
}

bool perfbench::withinDemand(double GBps, double DemandGBps) {
  return GBps > 0.0 && GBps <= DemandGBps * (1.0 + 1e-9);
}

bool perfbench::nearDemand(double GBps, double DemandGBps, double Tolerance) {
  return std::abs(GBps - DemandGBps) <= Tolerance * DemandGBps;
}

bool perfbench::columnGain(double OptColGBps, double BaseColGBps,
                           double Factor) {
  return BaseColGBps > 0.0 && OptColGBps >= Factor * BaseColGBps;
}

bool perfbench::twoLevelNotSlower(fft3d::Picos TwoLevelTime,
                                  fft3d::Picos RoundRobinTime) {
  return TwoLevelTime > 0 && TwoLevelTime <= RoundRobinTime;
}

bool perfbench::replannedAroundFault(const fft3d::AppReport &R) {
  return R.Replanned &&
         R.ReplannedPlan.VaultsParallel < R.Plan.VaultsParallel;
}

bool perfbench::fleetConserved(std::uint64_t Offered, std::uint64_t Completed,
                               std::uint64_t Shed, std::uint64_t Failed) {
  return Offered == Completed + Shed + Failed;
}

bool perfbench::fleetRateMatches(std::uint64_t Completed,
                                 fft3d::Picos Makespan, double OfferedPerSec,
                                 double Tolerance) {
  if (Makespan == 0 || OfferedPerSec <= 0.0)
    return false;
  const double Achieved = static_cast<double>(Completed) /
                          (static_cast<double>(Makespan) * 1e-12);
  return std::abs(Achieved - OfferedPerSec) <= Tolerance * OfferedPerSec;
}

bool perfbench::meetsServiceLimit(std::uint64_t Shed, double P99Ms,
                                  double LimitMs) {
  return Shed == 0 && P99Ms <= LimitMs;
}

namespace {

bool samePhase(const fft3d::PhaseResult &A, const fft3d::PhaseResult &B) {
  return A.Elapsed == B.Elapsed && A.Ops == B.Ops &&
         A.TotalPhaseBytes == B.TotalPhaseBytes &&
         A.SimEvents == B.SimEvents && A.RowActivations == B.RowActivations &&
         A.EstimatedPhaseTime == B.EstimatedPhaseTime &&
         A.EccRetries == B.EccRetries &&
         A.OfflineRedirects == B.OfflineRedirects &&
         sameBits(A.ThroughputGBps, B.ThroughputGBps) &&
         sameBits(A.MeanReqLatencyNanos, B.MeanReqLatencyNanos);
}

} // namespace

bool perfbench::sameReport(const fft3d::AppReport &A,
                           const fft3d::AppReport &B) {
  return samePhase(A.RowPhase, B.RowPhase) &&
         samePhase(A.ColPhase, B.ColPhase) &&
         A.EstimatedTotalTime == B.EstimatedTotalTime &&
         sameBits(A.AppThroughputGBps, B.AppThroughputGBps);
}

bool perfbench::sameReport(const fft3d::ClusterReport &A,
                           const fft3d::ClusterReport &B) {
  return A.TotalTime == B.TotalTime && A.ExchangeTime == B.ExchangeTime &&
         A.XferBytes == B.XferBytes &&
         sameBits(A.AppThroughputGBps, B.AppThroughputGBps);
}

bool perfbench::sameReport(const fft3d::FleetResult &A,
                           const fft3d::FleetResult &B) {
  return A.Summary.Completed == B.Summary.Completed &&
         A.Summary.Shed == B.Summary.Shed && A.EndTime == B.EndTime &&
         A.LastCompletion == B.LastCompletion &&
         A.PeakOutstanding == B.PeakOutstanding &&
         sameBits(A.Summary.P99LatencyMs, B.Summary.P99LatencyMs) &&
         A.Cache.Hits == B.Cache.Hits && A.Cache.Misses == B.Cache.Misses;
}
