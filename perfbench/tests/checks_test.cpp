//===- perfbench/tests/checks_test.cpp - Checks reject perturbed results --===//
//
// Part of the fft3d project.
//
// Every check the benchmark applies must pass on a correct result and
// reject the same result perturbed. Runs in a second; exits non-zero and
// names the check on the first violation.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Inputs.h"

#include "cluster/ClusterFftProcessor.h"
#include "core/Fft2dProcessor.h"
#include "fft/Convolution.h"
#include "fft/Fft2d.h"
#include "fft/PackedSpectrum.h"
#include "fault/FaultSpec.h"
#include "fft/StreamingKernel.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

using namespace perfbench;
using namespace fft3d;

namespace {

int Failures = 0;

/// \p Good must pass, \p Bad must be rejected.
void expect(const char *Check, bool Good, bool Bad) {
  if (!Good || Bad) {
    std::printf("FAIL %s: correct %s, perturbed %s\n", Check,
                Good ? "passes" : "REJECTED", Bad ? "PASSES" : "rejected");
    ++Failures;
  } else {
    std::printf("ok   %s\n", Check);
  }
}

} // namespace

int main() {
  // Simulated runs: a real optimized 256^2 run and its baseline.
  SystemConfig Cfg = SystemConfig::forProblemSize(256);
  Fft2dProcessor Proc(Cfg);
  const AppReport Opt = Proc.runOptimized();
  const AppReport Base = Proc.runBaseline();
  const std::uint64_t Bytes = expectedPhaseBytes(256, false);
  PhaseResult Lost = Opt.RowPhase;
  Lost.TotalPhaseBytes -= 8;
  expect("bytes.conserved", phaseBytesConserved(Opt.RowPhase, Bytes),
         phaseBytesConserved(Lost, Bytes));
  SystemConfig RealCfg = Cfg;
  RealCfg.Input = InputDomain::Real;
  const AppReport Real = Fft2dProcessor(RealCfg).runOptimized();
  expect("bytes.real_half",
         phaseBytesConserved(Real.ColPhase, expectedPhaseBytes(256, true)),
         phaseBytesConserved(Opt.ColPhase, expectedPhaseBytes(256, true)));

  const double Demand =
      kernelDemandGBps(Cfg.Optimized.Lanes, StreamingKernel::achievableClockMHz(256));
  expect("demand.not_exceeded", withinDemand(Opt.AppThroughputGBps, Demand),
         withinDemand(Demand * 1.001, Demand));
  expect("demand.reached", nearDemand(Demand * 0.997, Demand),
         nearDemand(Demand * 0.99, Demand));
  expect("column.gain",
         columnGain(Opt.ColPhase.ThroughputGBps, Base.ColPhase.ThroughputGBps),
         columnGain(Base.ColPhase.ThroughputGBps * 9.9,
                    Base.ColPhase.ThroughputGBps));
  expect("cluster.two_level_not_slower", twoLevelNotSlower(100, 100),
         twoLevelNotSlower(101, 100));

  // Twelve of sixteen vaults lost 1 us into phase 1 leave fewer
  // than the plan runs in parallel, forcing the phase-boundary re-plan;
  // the healthy run keeps its plan.
  std::string SpecText;
  for (int V = 0; V != 12; ++V)
    SpecText += "vault_fail " + std::to_string(V) + " at 0.001\n";
  auto Spec = std::make_shared<FaultSpec>();
  if (!Spec->parse(SpecText)) {
    std::printf("FAIL fault spec does not parse\n");
    return 1;
  }
  SystemConfig FaultCfg = Cfg;
  FaultCfg.Mem.Faults = Spec;
  const AppReport Faulted = Fft2dProcessor(FaultCfg).runOptimized();
  AppReport SamePlan = Faulted;
  SamePlan.ReplannedPlan.VaultsParallel = SamePlan.Plan.VaultsParallel;
  expect("fault.replanned", replannedAroundFault(Faulted),
         replannedAroundFault(Opt) || replannedAroundFault(SamePlan));

  // Determinism: a second run reproduces the first; one simulated field
  // moved by a picosecond, an operation or one ulp does not.
  const AppReport Again = Proc.runOptimized();
  AppReport Late = Opt, Extra = Opt, Ulp = Opt;
  Late.ColPhase.Elapsed += 1;
  Extra.RowPhase.Ops += 1;
  Ulp.AppThroughputGBps = std::nextafter(
      Ulp.AppThroughputGBps, std::numeric_limits<double>::infinity());
  expect("determinism (report)", sameReport(Again, Opt),
         sameReport(Late, Opt) || sameReport(Extra, Opt) ||
             sameReport(Ulp, Opt));
  ClusterFftProcessor ClusterProc(ClusterConfig::forProblemSize(256, 2));
  const ClusterReport C1 = ClusterProc.run2d();
  ClusterReport CLate = C1;
  CLate.TotalTime += 1;
  expect("determinism (cluster)", sameReport(ClusterProc.run2d(), C1),
         sameReport(CLate, C1));
  FleetResult F1;
  F1.Summary.Completed = 1000;
  F1.Summary.P99LatencyMs = 45.0;
  F1.LastCompletion = 4100000000000ull;
  FleetResult FSlow = F1, FMore = F1;
  FSlow.Summary.P99LatencyMs = std::nextafter(45.0, 46.0);
  FMore.Summary.Completed += 1;
  expect("determinism (fleet)", sameReport(F1, F1),
         sameReport(FSlow, F1) || sameReport(FMore, F1));
  expect("fleet.conservation", fleetConserved(10, 7, 2, 1),
         fleetConserved(10, 7, 2, 0));
  // 1000 jobs over 4.1 s at an offered 240/s is 1.6% off; 900 is 8.5%.
  expect("fleet.capacity_bracket", meetsServiceLimit(0, 100.0, 100.0),
         meetsServiceLimit(1, 45.0, 100.0) ||
             meetsServiceLimit(0, 101.0, 100.0));
  expect("fleet.rate", fleetRateMatches(1000, 4100000000000ull, 240.0, 0.03),
         fleetRateMatches(900, 4100000000000ull, 240.0, 0.03));

  // Functional transforms on a 64^2 multi-tone input.
  const std::uint64_t N = 64;
  SplitMix Rng(7);
  const std::vector<Tone> Tones = makeTones(Rng, N, 4, false);
  const Matrix In = synthComplex(N, Tones);
  const SystemConfig Small = SystemConfig::forProblemSize(N);
  const Matrix X = Fft2dProcessor::computeViaDynamicLayout(In, Small);
  Matrix Bent = X;
  Bent.at(3, 5) += CplxF(1e-3f * static_cast<float>(N * N), 0.0f);
  expect("spectrum.exact",
         complexSpectrumErrorU(X, Tones) <= MaxSpectrumErrorU,
         complexSpectrumErrorU(Bent, Tones) <= MaxSpectrumErrorU);
  Matrix Scaled = X;
  for (CplxF &V : Scaled.storage())
    V *= 1.0001f;
  expect("spectrum.parseval", parsevalRelError(X, In) <= MaxParsevalRelError,
         parsevalRelError(Scaled, In) <= MaxParsevalRelError);
  Matrix Back = X, BentBack = Bent;
  const Fft2d Plan(N, N);
  Plan.inverse(Back);
  Plan.inverse(BentBack);
  expect("spectrum.round_trip", maxRelDiff(Back, In) <= MaxRoundTripRelError,
         maxRelDiff(BentBack, In) <= MaxRoundTripRelError);

  const std::vector<Tone> RealTones = makeTones(Rng, N, 4, true);
  const std::vector<double> Field = synthReal(N, RealTones);
  const Matrix Packed = Fft2dProcessor::computeRealViaDynamicLayout(
      Field, Small);
  HalfSpectrum H = unpackSpectrum(Packed, N);
  HalfSpectrum BentH = H;
  BentH.at(1, 2) += 1e-3 * static_cast<double>(N * N);
  expect("spectrum.exact (real)",
         halfSpectrumErrorU(H, RealTones) <= MaxSpectrumErrorU,
         halfSpectrumErrorU(BentH, RealTones) <= MaxSpectrumErrorU);
  HalfSpectrum ScaledH = H;
  for (CplxD &V : ScaledH.Data)
    V *= 1.0001;
  expect("spectrum.parseval (real)",
         parsevalRelError(H, Field) <= MaxParsevalRelError,
         parsevalRelError(ScaledH, Field) <= MaxParsevalRelError);
  std::vector<double> BentField = packedRealInverse2d(Packed, N);
  BentField[17] += 1e-3;
  expect("spectrum.round_trip (real)",
         maxRelDiff(packedRealInverse2d(Packed, N), Field) <=
             MaxRoundTripRelError,
         maxRelDiff(BentField, Field) <= MaxRoundTripRelError);

  const Matrix Lossy =
      Fft2dProcessor::computeViaDynamicLayoutWithVaultLoss(In, Small, 2);
  expect("vault_loss.bit_identical", Lossy.storage() == X.storage(),
         Bent.storage() == X.storage());

  std::vector<double> Impulse(N * N, 0.0);
  Impulse[5 * N + 9] = 1.0;
  const std::vector<double> Conv =
      circularConvolve2dReal(Field, Impulse, N, N);
  expect("conv.cyclic_shift",
         maxRelDiff(Conv, cyclicShift(Field, N, 5, 9)) <= MaxShiftRelError,
         maxRelDiff(Conv, cyclicShift(Field, N, 5, 8)) <= MaxShiftRelError);

  const ClusterConfig Cluster = ClusterConfig::forProblemSize(N, 4);
  const Matrix Dist = ClusterFftProcessor::compute2d(In, Cluster);
  expect("spectrum.exact (compute2d)",
         complexSpectrumErrorU(Dist, Tones) <= MaxSpectrumErrorU,
         complexSpectrumErrorU(Bent, Tones) <= MaxSpectrumErrorU);

  std::printf("%s\n", Failures ? "FAILED" : "all checks reject perturbed results");
  return Failures ? 1 : 0;
}
