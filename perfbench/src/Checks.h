//===- perfbench/src/Checks.h - Output checks -------------------*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks of the library's outputs against quantities computed without
/// the library, or against properties the method must have. Each is a
/// pure predicate (true = pass) so tests/checks_test.cpp can show that it
/// rejects a perturbed result. Workloads record each under the name given
/// in its comment.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "cluster/ClusterFftProcessor.h"
#include "core/Fft2dProcessor.h"
#include "serve/fleet/FleetSimulator.h"

#include <cstdint>
#include <cstring>

namespace perfbench {

/// Bytes one phase of an N x N transform moves, read plus write: every
/// complex element (8 B) is read once and written once. The packed real
/// path moves exactly half.
std::uint64_t expectedPhaseBytes(std::uint64_t N, bool Real);

/// "bytes.conserved": the phase's full volume is exactly \p Expected.
bool phaseBytesConserved(const fft3d::PhaseResult &P, std::uint64_t Expected);

/// Kernel stream demand: Lanes elements per cycle at ClockMHz, 8-byte
/// elements, read and write streams together (GB/s).
double kernelDemandGBps(unsigned Lanes, double ClockMHz);

/// "demand.not_exceeded": a rate no higher than the kernel's demand (a
/// relative slack of 1e-9 absorbs the printing of the rate only).
bool withinDemand(double GBps, double DemandGBps);

/// "demand.reached": a healthy optimized run comes within \p Tolerance
/// (relative) of the demand.
bool nearDemand(double GBps, double DemandGBps, double Tolerance = 0.005);

/// "column.gain": the optimized column phase is at least \p Factor times
/// the baseline's.
bool columnGain(double OptColGBps, double BaseColGBps, double Factor = 10.0);

/// "cluster.two_level_not_slower": two-level placement takes no longer
/// than round-robin at the same point.
bool twoLevelNotSlower(fft3d::Picos TwoLevelTime, fft3d::Picos RoundRobinTime);

/// "fault.replanned": a run whose vaults failed before phase 2 re-solved
/// Eq. 1 for fewer vaults in parallel than its healthy plan.
bool replannedAroundFault(const fft3d::AppReport &R);

/// "fleet.conservation": offered = completed + shed + failed.
bool fleetConserved(std::uint64_t Offered, std::uint64_t Completed,
                    std::uint64_t Shed, std::uint64_t Failed);

/// "fleet.rate": completed / simulated makespan within \p Tolerance
/// (relative) of the offered rate.
bool fleetRateMatches(std::uint64_t Completed, fft3d::Picos Makespan,
                      double OfferedPerSec, double Tolerance);

/// A fleet pass meets the service limit: no job shed and p99 latency no
/// higher than \p LimitMs. The capacity search keeps the highest rate
/// that meets it; "fleet.capacity_bracket" requires the search's lower
/// end (the nominal rate) to meet it.
bool meetsServiceLimit(std::uint64_t Shed, double P99Ms, double LimitMs);

/// "determinism": simulated results repeat bit for bit. Later rounds of
/// a run compare every simulated field the metrics read (times, volumes,
/// event and activation counts, rates and latencies) with round 1's.
inline bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}
bool sameReport(const fft3d::AppReport &A, const fft3d::AppReport &B);
bool sameReport(const fft3d::ClusterReport &A, const fft3d::ClusterReport &B);
bool sameReport(const fft3d::FleetResult &A, const fft3d::FleetResult &B);

/// Tolerances of the functional checks (see README: measured values sit
/// at a fraction of these).
constexpr double MaxSpectrumErrorU = 8.0;
constexpr double MaxParsevalRelError = 1e-5;
constexpr double MaxRoundTripRelError = 1e-5;
constexpr double MaxShiftRelError = 1e-5;

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
