//===- perfbench/src/PaperTables.cpp - Table 1/2 reproduction workload ----===//
//
// Part of the fft3d project.
//
// One round: Fft2dProcessor::runBaseline and runOptimized, complex input,
// one stack, at 2048^2, 4096^2 and 8192^2 - the paper's Table 1/2 points.
// Host time goes to the event core, the mem3d controllers and the phase
// engine; the FFT kernels, cluster and serve tiers do no work here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Layers.h"

#include "core/Fft2dProcessor.h"
#include "fft/StreamingKernel.h"

#include <cmath>
#include <memory>

using namespace perfbench;
using namespace fft3d;

namespace {

constexpr std::uint64_t Sizes[] = {2048, 4096, 8192};
constexpr unsigned NumSizes = 3;

std::uint64_t simOps(const AppReport &R) {
  return R.RowPhase.Ops + R.ColPhase.Ops;
}

class PaperTables final : public perfbench::Workload {
public:
  void setup(std::uint64_t) override {
    Points.clear();
    for (std::uint64_t N : Sizes) {
      Point P;
      P.Config = SystemConfig::forProblemSize(N);
      P.Proc = std::make_unique<Fft2dProcessor>(P.Config);
      P.DemandGBps = kernelDemandGBps(
          P.Config.Optimized.Lanes, StreamingKernel::achievableClockMHz(N));
      Points.push_back(std::move(P));
    }
    // Warm-up: one optimized run at the smallest size, untimed by the
    // rounds (allocators, instruction and data caches).
    Points.front().Proc->runOptimized();
  }

  void round(RunContext &Ctx) override {
    double Seconds = 0.0;
    for (Point &P : Points) {
      AppReport Base, Opt;
      {
        Ledger::Op Op(Ctx.Ops);
        const RefTimer Timer;
        {
          auto S = Ctx.Spans.scope("core.runBaseline", Ctx.Ops.attempted());
          Base = P.Proc->runBaseline();
        }
        Seconds += Timer.seconds();
        const std::uint64_t Bytes = expectedPhaseBytes(P.Config.N, false);
        Op.check(phaseBytesConserved(Base.RowPhase, Bytes),
                 "bytes.conserved");
        Op.check(phaseBytesConserved(Base.ColPhase, Bytes),
                 "bytes.conserved");
        if (Ctx.Round == 0)
          P.Base = Base;
        else
          Op.check(sameReport(Base, P.Base), "determinism");
      }
      {
        Ledger::Op Op(Ctx.Ops);
        const RefTimer Timer;
        {
          auto S = Ctx.Spans.scope("core.runOptimized", Ctx.Ops.attempted());
          Opt = P.Proc->runOptimized();
        }
        Seconds += Timer.seconds();
        const std::uint64_t Bytes = expectedPhaseBytes(P.Config.N, false);
        Op.check(phaseBytesConserved(Opt.RowPhase, Bytes), "bytes.conserved");
        Op.check(phaseBytesConserved(Opt.ColPhase, Bytes), "bytes.conserved");
        Op.check(withinDemand(Opt.RowPhase.ThroughputGBps, P.DemandGBps) &&
                     withinDemand(Opt.ColPhase.ThroughputGBps, P.DemandGBps) &&
                     withinDemand(Opt.AppThroughputGBps, P.DemandGBps),
                 "demand.not_exceeded");
        Op.check(nearDemand(Opt.AppThroughputGBps, P.DemandGBps),
                 "demand.reached");
        Op.check(columnGain(Opt.ColPhase.ThroughputGBps,
                            Base.ColPhase.ThroughputGBps),
                 "column.gain");
        if (Ctx.Round == 0)
          P.Opt = Opt;
        else
          Op.check(sameReport(Opt, P.Opt), "determinism");
      }
    }
    Ctx.Host.add("round_s", Seconds);
  }

  /// sim_gbps: geomean optimized application throughput (the Table 1/2
  /// column); sim_time: summed simulated time of the six runs.
  void endToEnd(MetricList &Out) const override {
    double LogGBps = 0.0;
    Picos SimTime = 0;
    for (const Point &P : Points) {
      LogGBps += std::log(P.Opt.AppThroughputGBps);
      SimTime += P.Base.EstimatedTotalTime + P.Opt.EstimatedTotalTime;
    }
    Out.push_back({"sim_gbps", std::exp(LogGBps / NumSizes), "GB/s"});
    Out.push_back({"sim_time", static_cast<double>(SimTime) * 1e-9, "sim-ms"});
  }

  void perLayer(RunContext &Ctx, MetricList &Out) override {
    // Simulated counts, per run, averaged over the three sizes.
    double BaseOps = 0, OptOps = 0, BaseEvents = 0, OptEvents = 0;
    double BaseActs = 0, OptActs = 0, OptColBytes = 0, BaseLatency = 0;
    double LogSpeedup = 0;
    for (const Point &P : Points) {
      LogSpeedup +=
          std::log(P.Opt.AppThroughputGBps / P.Base.AppThroughputGBps);
      BaseOps += static_cast<double>(simOps(P.Base));
      OptOps += static_cast<double>(simOps(P.Opt));
      BaseEvents += static_cast<double>(P.Base.RowPhase.SimEvents +
                                        P.Base.ColPhase.SimEvents);
      OptEvents += static_cast<double>(P.Opt.RowPhase.SimEvents +
                                       P.Opt.ColPhase.SimEvents);
      BaseActs += static_cast<double>(P.Base.ColPhase.RowActivations);
      OptActs += static_cast<double>(P.Opt.ColPhase.RowActivations);
      OptColBytes += static_cast<double>(P.Opt.ColPhase.BytesRead +
                                         P.Opt.ColPhase.BytesWritten);
      BaseLatency += P.Base.ColPhase.MeanReqLatencyNanos;
    }

    // Host cost per simulated op of the traced runs.
    const double BaseRuns =
        static_cast<double>(Ctx.Spans.count("core.runBaseline"));
    const double OptRuns =
        static_cast<double>(Ctx.Spans.count("core.runOptimized"));
    const double BaseSpanNs = Ctx.Spans.seconds("core.runBaseline") * 1e9;
    const double OptSpanNs = Ctx.Spans.seconds("core.runOptimized") * 1e9;

    // Layer drives on the 2048^2 streams of both architectures.
    const SystemConfig &Cfg = Points.front().Config;
    double TraceOps = 0, TraceSeconds = 0;
    double PhaseCost[2][2] = {}; // [optimized][col phase] ns per op.
    ReplayStats BaseCol, OptCol;
    for (int Opt = 0; Opt != 2; ++Opt)
      for (int Col = 0; Col != 2; ++Col) {
        const PhaseStreams S =
            buildPhaseStreams(Cfg, Opt, Col, ReplayOpsPerDirection);
        const double Ops = static_cast<double>(S.Reads.size() + S.Writes.size());
        TraceOps += Ops;
        TraceSeconds += S.GenSeconds;
        ReplayStats R = replayPhase(Cfg.Mem, S);
        PhaseCost[Opt][Col] = (S.GenSeconds + R.Seconds) * 1e9 / Ops;
        if (Col)
          (Opt ? OptCol : BaseCol) = std::move(R);
      }
    MemoryConfig Fcfs = Cfg.Mem;
    Fcfs.Sched = SchedulePolicy::Fcfs;
    const ReplayStats FcfsCol =
        replayPhase(Fcfs, buildPhaseStreams(Cfg, true, true,
                                            ReplayOpsPerDirection));
    const double EventNs =
        eventCoreNsPerEvent(OptCol.Completions, Cfg.Optimized.ReadWindow);

    // Attribution: each traced run's simulated ops at its architecture's
    // per-op cost (trace generation + Memory3D replay) per phase.
    double Attributed = 0;
    for (const Point &P : Points) {
      const double PerBase = static_cast<double>(P.Base.RowPhase.Ops) *
                                 PhaseCost[0][0] +
                             static_cast<double>(P.Base.ColPhase.Ops) *
                                 PhaseCost[0][1];
      const double PerOpt = static_cast<double>(P.Opt.RowPhase.Ops) *
                                PhaseCost[1][0] +
                            static_cast<double>(P.Opt.ColPhase.Ops) *
                                PhaseCost[1][1];
      Attributed += (PerBase * BaseRuns + PerOpt * OptRuns) / NumSizes;
    }
    const double SpanNs = BaseSpanNs + OptSpanNs;

    auto NsPer = [](const ReplayStats &R) {
      return R.Seconds * 1e9 / static_cast<double>(R.Requests);
    };
    Out.push_back({"core.tracegen_ns_per_op", TraceSeconds * 1e9 / TraceOps,
                   "ns"});
    Out.push_back({"core.host_ns_per_sim_op_base",
                   BaseSpanNs / (BaseRuns / NumSizes * BaseOps), "ns"});
    Out.push_back({"core.host_ns_per_sim_op_opt",
                   OptSpanNs / (OptRuns / NumSizes * OptOps), "ns"});
    Out.push_back(
        {"core.sim_speedup", std::exp(LogSpeedup / NumSizes), "x"});
    Out.push_back({"core.sim_ops_per_run_base", BaseOps / NumSizes, "count"});
    Out.push_back({"core.sim_ops_per_run_opt", OptOps / NumSizes, "count"});
    Out.push_back(
        {"sim.events_per_run_base", BaseEvents / NumSizes, "count"});
    Out.push_back({"sim.events_per_run_opt", OptEvents / NumSizes, "count"});
    Out.push_back({"sim.host_ns_per_event", EventNs, "ns"});
    Out.push_back({"mem3d.host_ns_per_request_col_base", NsPer(BaseCol), "ns"});
    Out.push_back(
        {"mem3d.host_ns_per_request_block_opt", NsPer(OptCol), "ns"});
    Out.push_back({"mem3d.host_ns_per_request_fcfs", NsPer(FcfsCol), "ns"});
    Out.push_back({"mem3d.col_activations_base", BaseActs / NumSizes, "count"});
    Out.push_back({"mem3d.col_activations_opt", OptActs / NumSizes, "count"});
    Out.push_back({"mem3d.col_bytes_per_activation_opt", OptColBytes / OptActs,
                   "B"});
    Out.push_back({"mem3d.mean_req_latency_ns_base", BaseLatency / NumSizes,
                   "sim-ns"});
    Out.push_back({"bench.unattributed_pct",
                   (SpanNs - Attributed) / SpanNs * 100.0, "%"});
  }

private:
  static constexpr std::uint64_t ReplayOpsPerDirection = 100000;

  struct Point {
    SystemConfig Config;
    std::unique_ptr<Fft2dProcessor> Proc;
    double DemandGBps = 0.0;
    /// Round-1 reports, the reference for later rounds.
    AppReport Base, Opt;
  };
  std::vector<Point> Points;
};

} // namespace

perfbench::Workload *perfbench::makePaperTables() { return new PaperTables(); }
