//===- perfbench/src/FleetServing.cpp - Fleet serving workload ------------===//
//
// Part of the fft3d project.
//
// An open-loop Poisson stream of the mixed job mix over a 4-stack
// FleetSimulator with the least-loaded router and the shared plan cache.
// One round:
//
//  - three fixed-rate passes (low, nominal, high);
//  - a bisection for the highest rate whose p99 stays within the limit
//    with no job shed (the fleet's capacity);
//  - one pass with the affinity router on a fixed, seed-independent
//    stream. That router has no load-aware spill and sheds about half of
//    its jobs; they count as failed operations. Its latencies and host
//    time feed no metric.
//
// Host time goes to the serve loop, router and plan cache.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Inputs.h"

#include "serve/fleet/FleetSimulator.h"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace fft3d;

namespace {

constexpr unsigned Stacks = 4;
constexpr unsigned Tenants = 32;
constexpr std::uint64_t JobsPerPass = 200000;
constexpr double LowRate = 120.0;
constexpr double NominalRate = 240.0;
constexpr double HighRate = 320.0;
/// Capacity search: p99 limit and the bisection bracket.
constexpr double P99LimitMs = 100.0;
constexpr double SearchHigh = 480.0;
constexpr unsigned SearchSteps = 7;
/// Seed of the affinity pass's stream (independent of --seed).
constexpr std::uint64_t AffinitySeed = 42;
/// fleet.rate: completed / makespan vs the offered rate at the nominal
/// rate. Over 2e5 Poisson arrivals the sample rate's standard deviation
/// is 0.22%; 3% is over thirteen of them.
constexpr double RateTolerance = 0.03;

/// Poisson arrivals over the job mix, drawn from the benchmark's own
/// generator: exponential gaps, a weighted template, a uniform tenant.
/// Deadlines use the warmed service model's full-machine estimates.
class BenchArrivals final : public ArrivalStream {
public:
  BenchArrivals(const std::vector<JobTemplate> &Mix,
                const std::vector<Picos> &DeadlineOffsets,
                std::uint64_t NumJobs, double RatePerSec, std::uint64_t Seed)
      : Mix(Mix), DeadlineOffsets(DeadlineOffsets), NumJobs(NumJobs),
        MeanGapPicos(1e12 / RatePerSec), Seed(Seed), Rng(Seed) {
    for (const JobTemplate &T : Mix)
      TotalWeight += T.Weight;
  }

  void reset() override {
    Rng = SplitMix(Seed);
    Now = 0;
    Produced = 0;
  }

  bool next(JobRequest &Job) override {
    if (Produced == NumJobs)
      return false;
    Now += static_cast<Picos>(-std::log(1.0 - Rng.uniform()) * MeanGapPicos);
    double Pick = Rng.uniform() * TotalWeight;
    std::size_t I = 0;
    while (I + 1 < Mix.size() && (Pick -= Mix[I].Weight) >= 0.0)
      ++I;
    const JobTemplate &T = Mix[I];
    Job = JobRequest();
    Job.Id = ++Produced;
    Job.N = T.N;
    Job.Frames = T.Frames;
    Job.Precision = T.Precision;
    Job.Kind = T.Kind;
    Job.Input = T.Input;
    Job.Priority = T.Priority;
    Job.Arrival = Now;
    Job.Deadline = DeadlineOffsets[I] ? Now + DeadlineOffsets[I] : 0;
    Job.Tenant = 1 + Rng.below(Tenants);
    if (Produced == 1)
      First = Now;
    return true;
  }

  Picos firstArrival() const { return First; }

private:
  const std::vector<JobTemplate> &Mix;
  const std::vector<Picos> &DeadlineOffsets;
  std::uint64_t NumJobs;
  double MeanGapPicos;
  std::uint64_t Seed;
  SplitMix Rng;
  double TotalWeight = 0.0;
  Picos Now = 0;
  Picos First = 0;
  std::uint64_t Produced = 0;
};

class FleetServing final : public perfbench::Workload {
public:
  void setup(std::uint64_t Seed) override {
    const double T0 = hostSeconds();
    Mix = mixedWorkloadTemplates();
    Model = std::make_unique<ServiceModel>(MemoryConfig());
    DeadlineOffsets.clear();
    for (const JobTemplate &T : Mix) {
      JobRequest Job;
      Job.N = T.N;
      Job.Frames = T.Frames;
      Job.Precision = T.Precision;
      Job.Kind = T.Kind;
      Job.Input = T.Input;
      const Picos Est = Model->fullMachineServiceTime(Job);
      DeadlineOffsets.push_back(
          T.DeadlineSlack > 0.0
              ? static_cast<Picos>(T.DeadlineSlack * static_cast<double>(Est))
              : 0);
    }
    ServiceModelSeconds = hostSeconds() - T0;
    StreamSeed = Seed;
    double Weight = 0.0, Bytes = 0.0;
    for (const JobTemplate &T : Mix) {
      const double ElemBytes =
          (T.Precision == JobPrecision::Fp32 ? 8.0 : 4.0) *
          (T.Input == JobInput::Real ? 0.5 : 1.0);
      Weight += T.Weight;
      Bytes += T.Weight * ElemBytes * static_cast<double>(T.N * T.N) *
               T.Frames;
    }
    MeanJobBytes = Bytes / Weight;
  }

  void round(RunContext &Ctx) override {
    // Fixed-rate passes: every job must complete.
    const double Rates[3] = {LowRate, NominalRate, HighRate};
    double Seconds = 0;
    for (int I = 0; I != 3; ++I) {
      BenchArrivals Arrivals(Mix, DeadlineOffsets, JobsPerPass, Rates[I],
                             StreamSeed * 3 + static_cast<unsigned>(I));
      FleetSimulator Sim(leastLoaded(), *Model);
      const RefTimer Timer;
      FleetResult R;
      {
        auto S = Ctx.Spans.scope("serve.fleet_run", Ctx.Ops.attempted());
        R = Sim.run(Arrivals);
      }
      Seconds += Timer.seconds();
      const SloSummary &Sum = R.Summary;
      Ledger::Op Op(Ctx.Ops, Sum.Completed);
      Ctx.Ops.notDone(Sum.Shed + Sum.FailedDropped,
                      "fleet.shed_least_loaded");
      Op.check(fleetConserved(JobsPerPass, Sum.Completed, Sum.Shed,
                              Sum.FailedDropped),
               "fleet.conservation");
      if (Rates[I] == NominalRate)
        Op.check(fleetRateMatches(Sum.Completed,
                                  R.LastCompletion - Arrivals.firstArrival(),
                                  NominalRate, RateTolerance),
                 "fleet.rate");
      if (Ctx.Round == 0) {
        Fixed[I] = R;
        std::fprintf(stderr,
                     "fleet %.0f jobs/s: completed %llu shed %llu p99 %.0f ms "
                     "peak outstanding %llu\n",
                     Rates[I], static_cast<unsigned long long>(Sum.Completed),
                     static_cast<unsigned long long>(Sum.Shed),
                     Sum.P99LatencyMs,
                     static_cast<unsigned long long>(R.PeakOutstanding));
      } else
        Op.check(sameReport(R, Fixed[I]), "determinism");
    }
    // Capacity: bisection on the rate between the nominal rate (which
    // must pass) and SearchHigh.
    {
      Ledger::Op Op(Ctx.Ops);
      auto Passes = [&](double Rate) {
        BenchArrivals Arrivals(Mix, DeadlineOffsets, JobsPerPass, Rate,
                               StreamSeed * 3 + 1);
        FleetSimulator Sim(leastLoaded(), *Model);
        const RefTimer Timer;
        FleetResult R;
        {
          auto S = Ctx.Spans.scope("serve.fleet_probe", Ctx.Ops.attempted());
          R = Sim.run(Arrivals);
        }
        Seconds += Timer.seconds();
        return meetsServiceLimit(R.Summary.Shed, R.Summary.P99LatencyMs,
                                 P99LimitMs);
      };
      double Lo = NominalRate, Hi = SearchHigh;
      Op.check(Passes(Lo), "fleet.capacity_bracket");
      for (unsigned I = 0; I != SearchSteps; ++I) {
        const double Mid = 0.5 * (Lo + Hi);
        (Passes(Mid) ? Lo : Hi) = Mid;
      }
      if (Ctx.Round == 0)
        Capacity = Lo;
      else
        Op.check(Lo == Capacity, "determinism");
    }
    Ctx.Host.add("round_s", Seconds);

    // Affinity pass on the fixed stream: shed jobs are failed operations.
    {
      BenchArrivals Arrivals(Mix, DeadlineOffsets, JobsPerPass, NominalRate,
                             AffinitySeed);
      FleetConfig Config = leastLoaded();
      Config.Router = RoutePolicy::Affinity;
      FleetSimulator Sim(Config, *Model);
      FleetResult R;
      {
        auto S = Ctx.Spans.scope("serve.fleet_affinity", Ctx.Ops.attempted());
        R = Sim.run(Arrivals);
      }
      const SloSummary &Sum = R.Summary;
      Ledger::Op Op(Ctx.Ops, Sum.Completed);
      Ctx.Ops.notDone(Sum.Shed + Sum.FailedDropped, "fleet.affinity_shed");
      Op.check(fleetConserved(JobsPerPass, Sum.Completed, Sum.Shed,
                              Sum.FailedDropped),
               "fleet.conservation");
      if (Ctx.Round == 0)
        Affinity = R;
      else
        Op.check(sameReport(R, Affinity), "determinism");
    }
  }

  /// sim_gbps: the capacity as a data rate (input bytes of the mix's
  /// mean job); sim_time: p99 job latency at the nominal rate.
  void endToEnd(MetricList &Out) const override {
    Out.push_back({"sim_gbps", Capacity * MeanJobBytes * 1e-9, "GB/s"});
    Out.push_back({"sim_time", Fixed[1].Summary.P99LatencyMs, "sim-ms"});
  }

  void perLayer(RunContext &Ctx, MetricList &Out) override {
    const double Jobs = static_cast<double>(Ctx.Spans.count("serve.fleet_run")) *
                        static_cast<double>(JobsPerPass);
    const double RunNs = Ctx.Spans.seconds("serve.fleet_run") * 1e9;

    // Drives: arrival generation, the router and the plan cache, fed the
    // nominal stream's jobs.
    BenchArrivals Arrivals(Mix, DeadlineOffsets, JobsPerPass, NominalRate,
                           StreamSeed * 3 + 1);
    std::vector<JobRequest> Jobs1;
    Jobs1.reserve(JobsPerPass);
    JobRequest Job;
    double T0 = hostSeconds();
    while (Arrivals.next(Job))
      Jobs1.push_back(Job);
    const double GenNs = (hostSeconds() - T0) * 1e9 / JobsPerPass;

    FleetRouter Router(RoutePolicy::LeastLoaded, Stacks);
    StackDispatchSet Set(Stacks);
    T0 = hostSeconds();
    for (const JobRequest &J : Jobs1)
      Set.endpoint(Router.route(J, Set)).Backlog += static_cast<Picos>(J.N);
    const double RouteNs = (hostSeconds() - T0) * 1e9 / JobsPerPass;

    SharedPlanCache Cache(PlanCacheMode::Shared, 8ull << 20,
                          200 * PicosPerMicro);
    T0 = hostSeconds();
    for (const JobRequest &J : Jobs1)
      Cache.charge(J.N, Model->totalVaults(),
                   static_cast<unsigned>(J.Id % Stacks), 0);
    const double CacheNs = (hostSeconds() - T0) * 1e9 / JobsPerPass;

    const double SpanNs = RunNs + Ctx.Spans.seconds("serve.fleet_probe") * 1e9 +
                          Ctx.Spans.seconds("serve.fleet_affinity") * 1e9;
    const double AllJobs =
        static_cast<double>(Ctx.Spans.count("serve.fleet_run") +
                            Ctx.Spans.count("serve.fleet_probe") +
                            Ctx.Spans.count("serve.fleet_affinity")) *
        static_cast<double>(JobsPerPass);
    const double Attributed = AllJobs * (GenNs + RouteNs + CacheNs);

    const SloSummary &Nominal = Fixed[1].Summary;
    Out.push_back({"serve.host_ns_per_job", RunNs / Jobs, "ns"});
    Out.push_back({"serve.service_model_s", ServiceModelSeconds, "s"});
    Out.push_back({"serve.capacity_jobs_per_s", Capacity, "jobs/s"});
    Out.push_back(
        {"serve.p99_ms_low_rate", Fixed[0].Summary.P99LatencyMs, "sim-ms"});
    Out.push_back(
        {"serve.p99_ms_high_rate", Fixed[2].Summary.P99LatencyMs, "sim-ms"});
    Out.push_back({"serve.queue_p99_ms", Nominal.P99QueueMs, "sim-ms"});
    Out.push_back({"serve.mean_service_ms", Nominal.MeanServiceMs, "sim-ms"});
    Out.push_back({"serve.plan_cache_hits",
                   static_cast<double>(Fixed[1].Cache.Hits), "count"});
    Out.push_back({"serve.plan_cache_misses",
                   static_cast<double>(Fixed[1].Cache.Misses), "count"});
    Out.push_back({"serve.peak_outstanding",
                   static_cast<double>(Fixed[1].PeakOutstanding), "count"});
    Out.push_back({"serve.affinity_shed_jobs",
                   static_cast<double>(Affinity.Summary.Shed), "count"});
    Out.push_back({"bench.unattributed_pct",
                   (SpanNs - Attributed) / SpanNs * 100.0, "%"});
  }

private:
  static FleetConfig leastLoaded() {
    FleetConfig Config;
    Config.NumStacks = Stacks;
    Config.Router = RoutePolicy::LeastLoaded;
    Config.CacheMode = PlanCacheMode::Shared;
    return Config;
  }

  std::vector<JobTemplate> Mix;
  std::unique_ptr<ServiceModel> Model;
  std::vector<Picos> DeadlineOffsets;
  double ServiceModelSeconds = 0.0;
  /// Input bytes of the mix's mean job (weighted over its templates).
  double MeanJobBytes = 0.0;
  std::uint64_t StreamSeed = 0;
  /// Round-1 results (low, nominal, high), capacity and affinity pass.
  FleetResult Fixed[3];
  double Capacity = 0.0;
  FleetResult Affinity;
};

} // namespace

perfbench::Workload *perfbench::makeFleetServing() { return new FleetServing(); }
