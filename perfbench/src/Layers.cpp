//===- perfbench/src/Layers.cpp - Layer drives ----------------------------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Bench.h"

#include "cluster/Interconnect.h"
#include "fft/Fft1d.h"
#include "layout/BlockDynamicLayout.h"
#include "layout/LayoutPlanner.h"
#include "layout/LinearLayouts.h"
#include "mem3d/Memory3D.h"
#include "permute/PermutationNetwork.h"
#include "sim/EventQueue.h"
#include "support/MathUtils.h"

#include <memory>

using namespace perfbench;
using namespace fft3d;

namespace {

std::vector<TraceOp> collect(TraceSource &T, std::uint64_t MaxOps) {
  std::vector<TraceOp> Ops;
  T.reset();
  while (Ops.size() < MaxOps) {
    const std::optional<TraceOp> Op = T.next();
    if (!Op)
      break;
    Ops.push_back(*Op);
  }
  return Ops;
}

/// Repeats \p Body (which does \p Units units of work) until at least
/// \p MinSeconds have passed; returns host ns per unit.
template <typename Fn>
double nsPerUnit(double Units, Fn Body, double MinSeconds = 0.05) {
  std::uint64_t Reps = 0;
  const double T0 = hostSeconds();
  double Elapsed = 0.0;
  do {
    Body();
    ++Reps;
    Elapsed = hostSeconds() - T0;
  } while (Elapsed < MinSeconds);
  return Elapsed * 1e9 / (Units * static_cast<double>(Reps));
}

} // namespace

PhaseStreams perfbench::buildPhaseStreams(const SystemConfig &Config,
                                          bool Optimized, bool ColPhase,
                                          std::uint64_t MaxOps) {
  // Regions as Fft2dProcessor lays them out: input, intermediate and
  // output, each rounded up to a whole row buffer.
  const std::uint64_t N = Config.N;
  const std::uint64_t Stride =
      roundUp(N * N * ElementBytes, Config.Mem.Geo.RowBufferBytes);
  const auto RowBuf = static_cast<std::uint32_t>(Config.Mem.Geo.RowBufferBytes);
  const ArchParams &Arch = Optimized ? Config.Optimized : Config.Baseline;

  PhaseStreams S;
  S.ReadWindow = Arch.ReadWindow;
  S.WriteWindow = Arch.WriteWindow;
  const RowMajorLayout Input(N, N, ElementBytes, 0);
  const double T0 = hostSeconds();
  if (!Optimized) {
    const RowMajorLayout Mid(N, N, ElementBytes, Stride);
    const RowMajorLayout Out(N, N, ElementBytes, 2 * Stride);
    if (!ColPhase) {
      RowScanTrace R(Input, RowBuf), W(Mid, RowBuf);
      S.Reads = collect(R, MaxOps);
      S.Writes = collect(W, MaxOps);
    } else {
      ColScanTrace R(Mid, RowBuf), W(Out, RowBuf);
      S.Reads = collect(R, MaxOps);
      S.Writes = collect(W, MaxOps);
    }
  } else {
    const LayoutPlanner Planner(Config.Mem.Geo, Config.Mem.Time, ElementBytes);
    const BlockPlan Plan = Planner.plan(N, Arch.VaultsParallel);
    const BlockDynamicLayout Mid(N, N, ElementBytes, Stride, Plan.W, Plan.H);
    const BlockDynamicLayout Out(N, N, ElementBytes, 2 * Stride, Plan.W,
                                 Plan.H);
    if (!ColPhase) {
      RowScanTrace R(Input, RowBuf);
      ChunkedBlockWriteTrace W(Mid);
      S.Reads = collect(R, MaxOps);
      S.Writes = collect(W, MaxOps);
    } else {
      BlockTrace R(Mid, BlockOrder::ColMajorBlocks);
      BlockTrace W(Out, BlockOrder::ColMajorBlocks);
      S.Reads = collect(R, MaxOps);
      S.Writes = collect(W, MaxOps);
    }
  }
  S.GenSeconds = hostSeconds() - T0;
  return S;
}

ReplayStats perfbench::replayPhase(const MemoryConfig &MemCfg,
                                   const PhaseStreams &Streams) {
  EventQueue Events;
  Memory3D Mem(Events, MemCfg);
  ReplayStats Stats;
  Stats.Completions.reserve(Streams.Reads.size() + Streams.Writes.size());

  struct Direction {
    const std::vector<TraceOp> *Ops;
    bool IsWrite;
    unsigned Window;
    std::size_t Next = 0;
    unsigned Outstanding = 0;
  };
  Direction Dirs[2] = {{&Streams.Reads, false, Streams.ReadWindow},
                       {&Streams.Writes, true, Streams.WriteWindow}};

  std::function<void(Direction &)> Submit = [&](Direction &D) {
    while (D.Outstanding < D.Window && D.Next < D.Ops->size()) {
      const TraceOp &Op = (*D.Ops)[D.Next++];
      D.Outstanding += Mem.submitSpan(
          Op.Addr, Op.Bytes, D.IsWrite,
          [&D, &Submit, &Stats](const MemRequest &, Picos When) {
            Stats.Completions.push_back(When);
            --D.Outstanding;
            Submit(D);
          });
    }
  };

  const double T0 = hostSeconds();
  Submit(Dirs[0]);
  Submit(Dirs[1]);
  Stats.Events = Events.run();
  Stats.Seconds = hostSeconds() - T0;
  Stats.Requests = Stats.Completions.size();
  return Stats;
}

double perfbench::eventCoreNsPerEvent(const std::vector<Picos> &Times,
                                      unsigned Window) {
  EventQueue Events;
  std::size_t Next = 0;
  std::uint64_t Ran = 0;
  std::function<void()> Fire = [&] {
    ++Ran;
    if (Next < Times.size())
      Events.scheduleAt(std::max(Times[Next++], Events.now()), [&] { Fire(); });
  };
  const double T0 = hostSeconds();
  for (unsigned I = 0; I != Window && Next < Times.size(); ++I)
    Events.scheduleAt(Times[Next++], [&] { Fire(); });
  Events.run();
  const double Seconds = hostSeconds() - T0;
  return Ran ? Seconds * 1e9 / static_cast<double>(Ran) : 0.0;
}

double perfbench::fft1dNsPerTransform(std::uint64_t N) {
  const Fft1d Plan(N);
  std::vector<CplxF> Data(N);
  for (std::uint64_t I = 0; I != N; ++I)
    Data[I] = CplxF(static_cast<float>(I % 7), static_cast<float>(I % 3));
  return nsPerUnit(1.0, [&] { Plan.forward(Data); });
}

double perfbench::permuteNsPerElement(unsigned Lanes,
                                      const Permutation &Perm) {
  PermutationNetwork Network(Lanes, Perm.size());
  Network.configure(Perm);
  std::vector<CplxF> Block(Perm.size(), CplxF(1.0f, 2.0f));
  return nsPerUnit(static_cast<double>(Perm.size()),
                   [&] { Block = Network.permute(Block); });
}

double perfbench::plannerNsPerPlan(const MemoryConfig &Mem,
                                   const std::vector<std::uint64_t> &Sizes) {
  const LayoutPlanner Planner(Mem.Geo, Mem.Time, ElementBytes);
  const unsigned Vaults = Mem.Geo.NumVaults;
  return nsPerUnit(static_cast<double>(Sizes.size() * Vaults), [&] {
    for (std::uint64_t N : Sizes)
      for (unsigned V = 1; V <= Vaults; ++V)
        Planner.plan(N, V);
  });
}

double perfbench::addrMapNsPerCall(const SystemConfig &Config) {
  const LayoutPlanner Planner(Config.Mem.Geo, Config.Mem.Time, ElementBytes);
  const BlockPlan Plan = Planner.plan(Config.N, Config.Optimized.VaultsParallel);
  const BlockDynamicLayout Layout(Config.N, Config.N, ElementBytes, 0, Plan.W,
                                  Plan.H);
  const std::uint64_t Rows = std::min<std::uint64_t>(Config.N, 64);
  return nsPerUnit(static_cast<double>(Rows * Config.N), [&] {
    for (std::uint64_t R = 0; R != Rows; ++R)
      for (std::uint64_t C = 0; C != Config.N; ++C)
        Layout.addressOf(R, C);
  });
}

double perfbench::interconnectNsPerTransfer(const ClusterConfig &Config) {
  const unsigned S = Config.Stacks;
  const std::uint64_t Tile =
      (Config.Node.N / S) * (Config.Node.N / S) * ElementBytes;
  return nsPerUnit(static_cast<double>(S * (S - 1)), [&] {
    EventQueue Events;
    Interconnect Fabric(Events, Config);
    for (unsigned Src = 0; Src != S; ++Src)
      for (unsigned Dst = 0; Dst != S; ++Dst)
        if (Src != Dst)
          Fabric.send(Src, Dst, Tile);
    Events.run();
  });
}
