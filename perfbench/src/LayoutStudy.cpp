//===- perfbench/src/LayoutStudy.cpp - Design exploration workload --------===//
//
// Part of the fft3d project.
//
// Design exploration of the optimized architecture at 1024^2 and 2048^2.
// One round has four parts:
//
//  1. single-stack design points: complex and packed-real input, and a
//     seeded vault-fault spec that forces an Eq. 1 re-plan;
//  2. 2-, 4- and 8-stack slab runs (ClusterFftProcessor::run2d) with
//     two-level and round-robin placement;
//  3. the functional data path on seeded multi-tone inputs:
//     computeViaDynamicLayout in both stream modes,
//     computeRealViaDynamicLayout, computeViaDynamicLayoutWithVaultLoss,
//     4-stack compute2d and circularConvolve2dReal.
//
// The FFT kernels, permutation network, planner, fault injector and
// interconnect work here; the blocking baseline does not.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Inputs.h"
#include "Layers.h"

#include "cluster/ClusterFftProcessor.h"
#include "core/Fft2dProcessor.h"
#include "fault/FaultSpec.h"
#include "fft/Convolution.h"
#include "fft/Fft2d.h"
#include "fft/PackedSpectrum.h"
#include "fft/RealFft2d.h"
#include "fft/StreamingKernel.h"
#include "permute/ControlUnit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

using namespace perfbench;
using namespace fft3d;

namespace {

constexpr std::uint64_t Sizes[] = {1024, 2048};
/// Size and stack counts of the multi-stack slab runs.
constexpr std::uint64_t ClusterN = 1024;
constexpr unsigned StackCounts[] = {2, 4, 8};
/// Size of the functional data-path transforms.
constexpr std::uint64_t FuncN = 1024;
constexpr unsigned NumTones = 32;

/// Fault spec: vault 5 fails 0.1 ms into phase 1, forcing the
/// phase-boundary Eq. 1 re-plan; 0.1% of reads take a 60 ns ECC retry,
/// drawn by the injector's hash of the run's seed.
std::string faultSpecText(std::uint64_t Seed) {
  return "seed " + std::to_string(Seed) +
         "\nvault_fail 5 at 0.1\ntransient rate 0.001 penalty 60\n";
}

class LayoutStudy final : public perfbench::Workload {
public:
  void setup(std::uint64_t Seed) override {
    auto Spec = std::make_shared<FaultSpec>();
    std::string Error;
    if (!Spec->parse(faultSpecText(Seed), &Error)) {
      std::fprintf(stderr, "fault spec: %s\n", Error.c_str());
      std::exit(1);
    }
    Points.clear();
    Clusters.clear();
    for (std::uint64_t N : Sizes) {
      for (int Kind = 0; Kind != 3; ++Kind) {
        DesignPoint P;
        P.Kind = static_cast<PointKind>(Kind);
        P.Config = SystemConfig::forProblemSize(N);
        if (P.Kind == PointKind::Real)
          P.Config.Input = InputDomain::Real;
        if (P.Kind == PointKind::Faulted)
          P.Config.Mem.Faults = Spec;
        P.Proc = std::make_unique<Fft2dProcessor>(P.Config);
        P.DemandGBps =
            kernelDemandGBps(P.Config.Optimized.Lanes,
                             StreamingKernel::achievableClockMHz(N));
        Points.push_back(std::move(P));
      }
    }
    for (unsigned S : StackCounts) {
      ClusterPoint C;
      C.Stacks = S;
      for (int Pl = 0; Pl != 2; ++Pl) {
        ClusterConfig Cfg = ClusterConfig::forProblemSize(ClusterN, S);
        Cfg.Placement =
            Pl == 0 ? StackPlacement::TwoLevel : StackPlacement::RoundRobin;
        C.Proc[Pl] = std::make_unique<ClusterFftProcessor>(Cfg);
      }
      Clusters.push_back(std::move(C));
    }

    // Functional inputs: multi-tone fields with closed-form spectra and
    // a shifted impulse for the convolution identity.
    SplitMix Rng(Seed);
    FuncConfig = SystemConfig::forProblemSize(FuncN);
    RealConfig = FuncConfig;
    RealConfig.Input = InputDomain::Real;
    Cluster4 = ClusterConfig::forProblemSize(FuncN, 4);
    ComplexTones = makeTones(Rng, FuncN, NumTones, false);
    RealTones = makeTones(Rng, FuncN, NumTones, true);
    ComplexIn = synthComplex(FuncN, ComplexTones);
    RealIn = synthReal(FuncN, RealTones);
    ShiftRows = Rng.below(FuncN);
    ShiftCols = Rng.below(FuncN);
    Impulse.assign(FuncN * FuncN, 0.0);
    Impulse[ShiftRows * FuncN + ShiftCols] = 1.0;
    Shifted = cyclicShift(RealIn, FuncN, ShiftRows, ShiftCols);
    FailedVaults = 1 + static_cast<unsigned>(Rng.below(4));
  }

  void round(RunContext &Ctx) override {
    double Seconds = designPoints(Ctx);
    Seconds += clusterPoints(Ctx);
    Seconds += functional(Ctx);
    Ctx.Host.add("round_s", Seconds);
  }

  /// sim_gbps: geomean application throughput of the six design points
  /// and the three two-level cluster runs; sim_time: summed simulated time
  /// of the design points and of the cluster runs in both placements.
  void endToEnd(MetricList &Out) const override {
    Picos SimTime = 0;
    double LogGBps = 0.0;
    for (const DesignPoint &P : Points) {
      SimTime += P.First.EstimatedTotalTime;
      LogGBps += std::log(P.First.AppThroughputGBps);
    }
    for (const ClusterPoint &C : Clusters) {
      SimTime += C.First[0].TotalTime + C.First[1].TotalTime;
      LogGBps += std::log(C.First[0].AppThroughputGBps);
    }
    const double Runs = static_cast<double>(Points.size() + Clusters.size());
    Out.push_back({"sim_gbps", std::exp(LogGBps / Runs), "GB/s"});
    Out.push_back({"sim_time", static_cast<double>(SimTime) * 1e-9, "sim-ms"});
  }

  void perLayer(RunContext &Ctx, MetricList &Out) override {
    // FFT kernels at the run's sizes.
    const double Ns512 = fft1dNsPerTransform(FuncN / 2);
    const double Ns1024 = fft1dNsPerTransform(FuncN);
    const double Ns4096 = fft1dNsPerTransform(4096);
    auto Mflops = [](std::uint64_t N, double Ns) {
      return 5.0 * static_cast<double>(N) * std::log2(static_cast<double>(N)) /
             Ns * 1e3;
    };
    double Fft2dMs = 0, Real2dMs = 0;
    {
      const Fft2d Plan(FuncN, FuncN);
      std::vector<double> Times;
      for (int I = 0; I != 3; ++I) {
        Matrix M = ComplexIn;
        const double T0 = hostSeconds();
        Plan.forward(M);
        Times.push_back(hostSeconds() - T0);
      }
      Fft2dMs = median(Times) * 1e3;
      const RealFft2d RealPlan(FuncN, FuncN);
      Times.clear();
      for (int I = 0; I != 3; ++I) {
        const double T0 = hostSeconds();
        const HalfSpectrum H = RealPlan.forward(RealIn);
        Times.push_back(hostSeconds() - T0);
      }
      Real2dMs = median(Times) * 1e3;
    }

    // Permutation network, planner and address map on the run's plan.
    const LayoutPlanner Planner(FuncConfig.Mem.Geo, FuncConfig.Mem.Time,
                                ElementBytes);
    const BlockPlan Plan =
        Planner.plan(FuncN, FuncConfig.Optimized.VaultsParallel);
    const double PermNs = permuteNsPerElement(
        static_cast<unsigned>(Plan.W),
        ControlUnit::columnFetchPermutation(Plan.W, Plan.H,
                                            StreamMode::ColumnSerial));
    const double PlanNs =
        plannerNsPerPlan(FuncConfig.Mem, {Sizes[0], Sizes[1]});
    const double AddrNs = addrMapNsPerCall(FuncConfig);
    const ClusterConfig Xfer4 = ClusterConfig::forProblemSize(ClusterN, 4);
    const double XferNs = interconnectNsPerTransfer(Xfer4);

    // Memory replay of the optimized 2048^2 phases: per-op cost of the
    // simulated design points and cluster phases.
    const SystemConfig Cfg2048 = SystemConfig::forProblemSize(Sizes[1]);
    double SimOpNs = 0, SimOps = 0;
    for (int Col = 0; Col != 2; ++Col) {
      const PhaseStreams S = buildPhaseStreams(Cfg2048, true, Col, 100000);
      const ReplayStats R = replayPhase(Cfg2048.Mem, S);
      SimOpNs += (S.GenSeconds + R.Seconds) * 1e9;
      SimOps += static_cast<double>(S.Reads.size() + S.Writes.size());
    }
    SimOpNs /= SimOps;

    // Attribution of every top-level span of the traced rounds.
    const double TracedRounds =
        static_cast<double>(Ctx.Spans.count("cluster.compute2d"));
    double PerRound = 0;
    for (const DesignPoint &P : Points) {
      PerRound += static_cast<double>(P.First.RowPhase.Ops +
                                      P.First.ColPhase.Ops) *
                  SimOpNs;
    }
    for (const ClusterPoint &C : Clusters)
      for (const ClusterReport &R : C.First)
        PerRound += static_cast<double>(C.Stacks) *
                        static_cast<double>(R.RowPhase.Ops + R.ColPhase.Ops +
                                            R.ExchangeMem.Ops) *
                        SimOpNs +
                    static_cast<double>(R.XferMessages) * XferNs;
    const double N = static_cast<double>(FuncN);
    const double ComplexFfts = 2 * N * Ns1024;
    const double RealFfts = N * Ns512 + N / 2 * Ns1024;
    const double Elems = N * N * PermNs;
    PerRound += 2 * (ComplexFfts + 2 * Elems); // both stream modes
    PerRound += RealFfts + Elems;               // packed real
    PerRound += ComplexFfts + 3 * Elems;        // store, migrate, fetch
    PerRound += ComplexFfts;                    // 4-stack compute2d
    PerRound += 3 * RealFfts;                   // convolution
    double SpanNs = 0;
    for (const Span &S : Ctx.Spans.spans())
      if (S.Parent < 0)
        SpanNs += static_cast<double>(S.EndNs - S.StartNs);

    double Migration = 0, Ecc = 0, Redirects = 0, Faulted = 0;
    for (const DesignPoint &P : Points)
      if (P.Kind == PointKind::Faulted) {
        Faulted += 1;
        Migration += static_cast<double>(P.First.MigrationTime) * 1e-6;
        Ecc += static_cast<double>(P.First.RowPhase.EccRetries +
                                   P.First.ColPhase.EccRetries);
        Redirects += static_cast<double>(P.First.RowPhase.OfflineRedirects +
                                         P.First.ColPhase.OfflineRedirects);
      }
    double LogSpeedup = 0;
    const ClusterPoint *S4 = nullptr;
    for (const ClusterPoint &C : Clusters) {
      LogSpeedup += std::log(static_cast<double>(C.First[1].TotalTime) /
                             static_cast<double>(C.First[0].TotalTime));
      if (C.Stacks == 4)
        S4 = &C;
    }
    auto SpanMs = [&](const char *Name) {
      const double Count = static_cast<double>(Ctx.Spans.count(Name));
      return Count ? Ctx.Spans.seconds(Name) * 1e3 / Count : 0.0;
    };

    Out.push_back({"fft.fft1d_mflops_n1024", Mflops(1024, Ns1024), "MFLOPS"});
    Out.push_back({"fft.fft1d_mflops_n4096", Mflops(4096, Ns4096), "MFLOPS"});
    Out.push_back({"fft.fft2d_ms_n1024", Fft2dMs, "ms"});
    Out.push_back({"fft.real2d_ms_n1024", Real2dMs, "ms"});
    Out.push_back(
        {"fft.rel_err_u", *std::max_element(ErrorsU, ErrorsU + 5), "u"});
    Out.push_back({"permute.melems_per_s", 1e3 / PermNs, "Melem/s"});
    Out.push_back({"layout.plans_per_s", 1e9 / PlanNs, "plans/s"});
    Out.push_back({"layout.addr_maps_per_s", 1e9 / AddrNs, "maps/s"});
    Out.push_back(
        {"core.dynamic_layout_ms", SpanMs("core.computeViaDynamicLayout"),
         "ms"});
    Out.push_back({"core.real_layout_ms",
                   SpanMs("core.computeRealViaDynamicLayout"), "ms"});
    Out.push_back({"core.vault_loss_ms",
                   SpanMs("core.computeViaDynamicLayoutWithVaultLoss"), "ms"});
    Out.push_back({"fault.migration_us", Migration / Faulted, "sim-us"});
    Out.push_back({"fault.ecc_retries", Ecc / Faulted, "count"});
    Out.push_back({"fault.offline_redirects", Redirects / Faulted, "count"});
    Out.push_back({"cluster.transfers_per_s", 1e9 / XferNs, "transfers/s"});
    Out.push_back({"cluster.exchange_us_two_level_s4",
                   static_cast<double>(S4->First[0].ExchangeTime) * 1e-6,
                   "sim-us"});
    Out.push_back({"cluster.exchange_us_round_robin_s4",
                   static_cast<double>(S4->First[1].ExchangeTime) * 1e-6,
                   "sim-us"});
    Out.push_back(
        {"cluster.two_level_speedup",
         std::exp(LogSpeedup / static_cast<double>(Clusters.size())), "x"});
    Out.push_back({"cluster.compute2d_ms_s4", SpanMs("cluster.compute2d"),
                   "ms"});
    Out.push_back({"bench.unattributed_pct",
                   (SpanNs - PerRound * TracedRounds) / SpanNs * 100.0, "%"});
  }

private:
  enum class PointKind { Complex, Real, Faulted };

  struct DesignPoint {
    PointKind Kind = PointKind::Complex;
    SystemConfig Config;
    std::unique_ptr<Fft2dProcessor> Proc;
    double DemandGBps = 0.0;
    AppReport First;
  };

  struct ClusterPoint {
    unsigned Stacks = 0;
    /// [0] two-level, [1] round-robin.
    std::unique_ptr<ClusterFftProcessor> Proc[2];
    ClusterReport First[2];
  };

  /// Each part runs its operations and returns their reference seconds.
  double designPoints(RunContext &Ctx) {
    double Seconds = 0;
    // Complex reports of this round, for the packed-real halving check.
    const AppReport *Complex = nullptr;
    std::vector<AppReport> Reports(Points.size());
    for (std::size_t I = 0; I != Points.size(); ++I) {
      DesignPoint &P = Points[I];
      Ledger::Op Op(Ctx.Ops);
      const RefTimer Timer;
      {
        auto S = Ctx.Spans.scope("core.runOptimized", Ctx.Ops.attempted());
        Reports[I] = P.Proc->runOptimized();
      }
      Seconds += Timer.seconds();
      const AppReport &R = Reports[I];
      const std::uint64_t N = P.Config.N;
      switch (P.Kind) {
      case PointKind::Complex:
        Complex = &R;
        Op.check(phaseBytesConserved(R.RowPhase, expectedPhaseBytes(N, false)),
                 "bytes.conserved");
        Op.check(phaseBytesConserved(R.ColPhase, expectedPhaseBytes(N, false)),
                 "bytes.conserved");
        break;
      case PointKind::Real:
        Op.check(phaseBytesConserved(R.RowPhase, expectedPhaseBytes(N, true)) &&
                     phaseBytesConserved(R.ColPhase,
                                         expectedPhaseBytes(N, true)) &&
                     2 * R.ColPhase.TotalPhaseBytes ==
                         Complex->ColPhase.TotalPhaseBytes &&
                     2 * R.RowPhase.TotalPhaseBytes ==
                         Complex->RowPhase.TotalPhaseBytes,
                 "bytes.real_half");
        break;
      case PointKind::Faulted:
        Op.check(replannedAroundFault(R), "fault.replanned");
        Op.check(phaseBytesConserved(R.ColPhase, expectedPhaseBytes(N, false)),
                 "bytes.conserved");
        break;
      }
      Op.check(withinDemand(R.RowPhase.ThroughputGBps, P.DemandGBps) &&
                   withinDemand(R.ColPhase.ThroughputGBps, P.DemandGBps) &&
                   withinDemand(R.AppThroughputGBps, P.DemandGBps),
               "demand.not_exceeded");
      if (Ctx.Round == 0) {
        P.First = R;
      } else {
        Op.check(sameReport(R, P.First), "determinism");
      }
    }
    return Seconds;
  }

  double clusterPoints(RunContext &Ctx) {
    double Seconds = 0;
    for (ClusterPoint &C : Clusters) {
      ClusterReport R[2];
      for (int Pl = 0; Pl != 2; ++Pl) {
        Ledger::Op Op(Ctx.Ops);
        const RefTimer Timer;
        {
          auto S = Ctx.Spans.scope("cluster.run2d", Ctx.Ops.attempted());
          R[Pl] = C.Proc[Pl]->run2d();
        }
        Seconds += Timer.seconds();
        if (Pl == 1)
          Op.check(twoLevelNotSlower(R[0].TotalTime, R[1].TotalTime),
                   "cluster.two_level_not_slower");
        if (Ctx.Round == 0)
          C.First[Pl] = R[Pl];
        else
          Op.check(sameReport(R[Pl], C.First[Pl]), "determinism");
      }
    }
    return Seconds;
  }

  /// Checks a forward complex spectrum of ComplexIn; returns its error.
  double checkComplex(Ledger::Op &Op, const Matrix &X) {
    const double ErrU = complexSpectrumErrorU(X, ComplexTones);
    Op.check(ErrU <= MaxSpectrumErrorU, "spectrum.exact");
    Op.check(parsevalRelError(X, ComplexIn) <= MaxParsevalRelError,
             "spectrum.parseval");
    Matrix Back = X;
    RoundTrip.inverse(Back);
    Op.check(maxRelDiff(Back, ComplexIn) <= MaxRoundTripRelError,
             "spectrum.round_trip");
    return ErrU;
  }

  double functional(RunContext &Ctx) {
    double Seconds = 0;
    auto Timed = [&](const char *Name, auto Body) {
      const RefTimer Timer;
      auto Result = [&] {
        auto S = Ctx.Spans.scope(Name, Ctx.Ops.attempted());
        return Body();
      }();
      Seconds += Timer.seconds();
      return Result;
    };
    // Spectral error of transform \p I; round 1 records it, later rounds
    // must reproduce it bit for bit.
    auto Record = [&](Ledger::Op &Op, unsigned I, double ErrU) {
      if (Ctx.Round == 0)
        ErrorsU[I] = ErrU;
      else
        Op.check(sameBits(ErrU, ErrorsU[I]), "determinism");
    };

    Matrix Reference;
    unsigned I = 0;
    for (StreamMode Mode : {StreamMode::LaneParallel, StreamMode::ColumnSerial}) {
      Ledger::Op Op(Ctx.Ops);
      Matrix X = Timed("core.computeViaDynamicLayout", [&] {
        return Fft2dProcessor::computeViaDynamicLayout(ComplexIn, FuncConfig,
                                                       Mode);
      });
      Record(Op, I++, checkComplex(Op, X));
      if (Mode == StreamMode::LaneParallel)
        Reference = std::move(X);
    }
    {
      Ledger::Op Op(Ctx.Ops);
      const Matrix Packed = Timed("core.computeRealViaDynamicLayout", [&] {
        return Fft2dProcessor::computeRealViaDynamicLayout(RealIn, RealConfig);
      });
      const HalfSpectrum H = unpackSpectrum(Packed, FuncN);
      const double ErrU = halfSpectrumErrorU(H, RealTones);
      Op.check(ErrU <= MaxSpectrumErrorU, "spectrum.exact");
      Op.check(parsevalRelError(H, RealIn) <= MaxParsevalRelError,
               "spectrum.parseval");
      Op.check(maxRelDiff(packedRealInverse2d(Packed, FuncN), RealIn) <=
                   MaxRoundTripRelError,
               "spectrum.round_trip");
      Record(Op, I++, ErrU);
    }
    {
      Ledger::Op Op(Ctx.Ops);
      const Matrix X =
          Timed("core.computeViaDynamicLayoutWithVaultLoss", [&] {
            return Fft2dProcessor::computeViaDynamicLayoutWithVaultLoss(
                ComplexIn, FuncConfig, FailedVaults);
          });
      Record(Op, I++, checkComplex(Op, X));
      Op.check(X.storage() == Reference.storage(), "vault_loss.bit_identical");
    }
    {
      Ledger::Op Op(Ctx.Ops);
      const Matrix X = Timed("cluster.compute2d", [&] {
        return ClusterFftProcessor::compute2d(ComplexIn, Cluster4);
      });
      Record(Op, I++, checkComplex(Op, X));
    }
    {
      Ledger::Op Op(Ctx.Ops);
      const std::vector<double> Conv = Timed("fft.circularConvolve2dReal", [&] {
        return circularConvolve2dReal(RealIn, Impulse, FuncN, FuncN);
      });
      Op.check(maxRelDiff(Conv, Shifted) <= MaxShiftRelError,
               "conv.cyclic_shift");
    }
    return Seconds;
  }

  std::vector<DesignPoint> Points;
  std::vector<ClusterPoint> Clusters;

  SystemConfig FuncConfig, RealConfig;
  ClusterConfig Cluster4;
  std::vector<Tone> ComplexTones, RealTones;
  Matrix ComplexIn;
  std::vector<double> RealIn, Impulse, Shifted;
  std::uint64_t ShiftRows = 0, ShiftCols = 0;
  unsigned FailedVaults = 1;
  const Fft2d RoundTrip{FuncN, FuncN};
  /// Round-1 spectral errors of the five transforms, in u.
  double ErrorsU[5] = {};
};

} // namespace

perfbench::Workload *perfbench::makeLayoutStudy() { return new LayoutStudy(); }
