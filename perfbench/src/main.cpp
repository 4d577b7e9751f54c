//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the fft3d project.
//
// Usage:
//   fft3d_perfbench --workload <paper_tables|layout_study|fleet_serving>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <chrome trace path>] [--setup-only 0|1]
//
// With --trace 0 it first starts itself eleven times with --setup-only 1:
// each such process sets the workload up and exits, and setup_s is the
// median time from its start to the end of its set-up. It then sets the
// workload up itself, runs whole rounds of its operations until --seconds
// have passed, and prints one JSON line: {"correct", "attempted",
// "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, runs the layer drives and reports the per-layer
// metrics of every layer: those the other two workloads drive come from
// one untraced and one traced round of each, set up from the same seed.
// Everything runs on the calling thread.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;

double perfbench::hostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
/// The calibration table: 4 Mi 32-bit entries, resident for the whole run.
constexpr std::size_t CalibrationEntries = std::size_t(1) << 22;
std::vector<double> CalibrationSamples;
} // namespace

double perfbench::calibrationSeconds() {
  static std::vector<std::uint32_t> Table(CalibrationEntries, 1);
  std::uint64_t State = 0x9e3779b97f4a7c15ull;
  std::uint32_t Acc = 0;
  const double T0 = hostSeconds();
  for (unsigned I = 0; I != 500000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Acc += Table[(State >> 33) & (Table.size() - 1)]++;
  }
  const double Seconds = hostSeconds() - T0;
  Table[0] = Acc;
  CalibrationSamples.push_back(Seconds);
  return Seconds;
}

double perfbench::runCalibrationSeconds() {
  return median(CalibrationSamples);
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(Pos);
  const std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] +
         (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

double RoundSamples::lowerQuartile(const std::string &Key) const {
  auto It = Samples.find(Key);
  return It == Samples.end() ? 0.0 : quantile(It->second, 0.25);
}

Ledger::Op::~Op() {
  L.Attempted += Weight;
  if (Failed)
    L.Failed += Weight;
}

bool Ledger::Op::check(bool Ok, const char *Name) {
  if (!Ok) {
    Failed = true;
    L.Correct = false;
    ++L.Failures[Name];
  }
  return Ok;
}

void Ledger::notDone(std::uint64_t Count, const char *Why) {
  Attempted += Count;
  Failed += Count;
  if (Count)
    Failures[Why] += Count;
}

void RoundSamples::summarize(std::FILE *Out) const {
  for (const auto &[Key, Values] : Samples) {
    const auto [Min, Max] = std::minmax_element(Values.begin(), Values.end());
    std::fprintf(Out,
                 "%s: %zu rounds, min %.6g lower quartile %.6g median %.6g "
                 "max %.6g\n",
                 Key.c_str(), Values.size(), *Min, quantile(Values, 0.25),
                 median(Values), *Max);
  }
}

namespace {

constexpr unsigned SetupRepeats = 11;

const char *const WorkloadNames[] = {"paper_tables", "layout_study",
                                     "fleet_serving"};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "paper_tables")
    return std::unique_ptr<Workload>(makePaperTables());
  if (Name == "layout_study")
    return std::unique_ptr<Workload>(makeLayoutStudy());
  if (Name == "fleet_serving")
    return std::unique_ptr<Workload>(makeFleetServing());
  return nullptr;
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: fft3d_perfbench --workload "
               "<paper_tables|layout_study|fleet_serving> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--setup-only 0|1]\n",
               Msg);
  std::exit(2);
}

/// Peak resident set of this process image, less the calibration table
/// (touched whole at start, so resident at the peak). VmHWM, not
/// getrusage's ru_maxrss: the latter keeps the high-water mark of the
/// process that exec'd the benchmark (the launcher), which would hide ours
/// below it.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Kb = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0 -
         static_cast<double>(CalibrationEntries * sizeof(std::uint32_t)) /
             (1024.0 * 1024.0);
}

/// Starts this program again with \p Args plus "--setup-only 1" and
/// returns the host time at which the child's set-up ended, as it prints
/// it. The child starts cold: a fresh process image, allocator and page
/// tables, so its set-up time includes everything before the first timed
/// operation.
double coldSetupEnd(std::vector<char *> Args) {
  static char Flag[] = "--setup-only", One[] = "1";
  Args.push_back(Flag);
  Args.push_back(One);
  Args.push_back(nullptr);
  int Fd[2];
  if (pipe(Fd) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Fd[0]);
  posix_spawn_file_actions_addclose(&Actions, Fd[1]);
  pid_t Pid = 0;
  const int Err = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                              Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Fd[1]);
  if (Err != 0) {
    std::fprintf(stderr, "error: cannot start the set-up process\n");
    std::exit(1);
  }
  std::string Out;
  char Buf[256];
  for (ssize_t Got; (Got = read(Fd[0], Buf, sizeof(Buf))) > 0;)
    Out.append(Buf, static_cast<std::size_t>(Got));
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || Out.empty()) {
    std::fprintf(stderr, "error: the set-up process failed\n");
    std::exit(1);
  }
  return std::strtod(Out.c_str(), nullptr);
}

void printFailures(const Ledger &Ops) {
  for (const auto &[Name, Count] : Ops.failures())
    std::fprintf(stderr, "failed: %s x%llu\n", Name.c_str(),
                 static_cast<unsigned long long>(Count));
}

/// Per-layer metrics of the workload named \p Name, from one untraced and
/// one traced round (round 1 checks against round 0), less its
/// bench.unattributed_pct. Returns false if a check failed.
bool otherLayers(const std::string &Name, std::uint64_t Seed,
                 MetricList &Out) {
  const std::unique_ptr<Workload> W = makeWorkload(Name);
  W->setup(Seed);
  RunContext Ctx;
  for (; Ctx.Round != 2; ++Ctx.Round) {
    Ctx.Spans.setEnabled(Ctx.Round == 1);
    W->round(Ctx);
  }
  Ctx.Spans.setEnabled(false);
  MetricList Metrics;
  W->perLayer(Ctx, Metrics);
  for (Metric &M : Metrics)
    if (M.Name != "bench.unattributed_pct")
      Out.push_back(std::move(M));
  printFailures(Ctx.Ops);
  return Ctx.Ops.correct();
}

void printJson(const Ledger &Ops, bool Correct, const MetricList &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Ops.attempted()),
              static_cast<unsigned long long>(Ops.failed()));
  for (std::size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, TraceOut;
  long long Seed = -1, Seconds = -1, Trace = -1, SetupOnly = 0;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      WorkloadName = Val;
    } else if (Arg == "--trace-out") {
      TraceOut = Val;
    } else if (Arg == "--seed" || Arg == "--seconds" || Arg == "--trace" ||
               Arg == "--setup-only") {
      const long long V = std::strtoll(Val, &End, 10);
      if (!End || *End || V < 0)
        usage(("bad value for " + Arg).c_str());
      (Arg == "--seed"         ? Seed
       : Arg == "--seconds"    ? Seconds
       : Arg == "--setup-only" ? SetupOnly
                               : Trace) = V;
    } else {
      usage(("unknown flag " + Arg).c_str());
    }
  }
  if (Seed < 0 || Seconds < 1 || (Trace != 0 && Trace != 1))
    usage("--seed, --seconds >= 1 and --trace 0|1 are required");

  const std::unique_ptr<Workload> W = makeWorkload(WorkloadName);
  if (!W)
    usage("unknown workload");

  if (SetupOnly) {
    W->setup(static_cast<std::uint64_t>(Seed));
    std::printf("%.9f\n", hostSeconds());
    return 0;
  }

  calibrationSeconds(); // Touches the calibration table once.
  std::vector<double> SetupTimes;
  if (Trace == 0) {
    const std::vector<char *> Args(Argv, Argv + Argc);
    for (unsigned I = 0; I != SetupRepeats; ++I) {
      const double T0 = hostSeconds();
      SetupTimes.push_back(coldSetupEnd(Args) - T0);
    }
  }
  W->setup(static_cast<std::uint64_t>(Seed));

  RunContext Ctx;
  std::vector<double> Untraced, Traced;
  const double Start = hostSeconds();
  do {
    // Traced runs alternate: even rounds untraced, odd rounds traced, so
    // both halves see the same machine state.
    const bool TraceRound = Trace == 1 && Ctx.Round % 2 == 1;
    Ctx.Spans.setEnabled(TraceRound);
    const double T0 = hostSeconds();
    W->round(Ctx);
    (TraceRound ? Traced : Untraced).push_back(hostSeconds() - T0);
    ++Ctx.Round;
  } while (hostSeconds() - Start < static_cast<double>(Seconds) ||
           (Trace == 1 && Ctx.Round < 2));
  Ctx.Spans.setEnabled(false);

  MetricList Metrics;
  bool OthersCorrect = true;
  if (Trace == 0) {
    // Set-up is mostly arithmetic (tone synthesis, planning), which a
    // memory-bound calibration loop around each one would rescale by its
    // own noise; the run's median calibration still follows the machine.
    Metrics.push_back({"setup_s",
                       median(SetupTimes) * ReferenceCalibrationSeconds /
                           runCalibrationSeconds(),
                       "s"});
    Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    Metrics.push_back({"round_s", Ctx.Host.lowerQuartile("round_s"), "s"});
    W->endToEnd(Metrics);
  } else {
    W->perLayer(Ctx, Metrics);
    std::vector<double> Cal;
    for (int I = 0; I != 5; ++I)
      Cal.push_back(calibrationSeconds());
    Metrics.push_back(
        {"bench.calibration_ns_per_access", median(Cal) * 1e9 / 500000, "ns"});
    const double Base = median(Untraced);
    Metrics.push_back(
        {"bench.trace_overhead_pct", (median(Traced) - Base) / Base * 100.0,
         "%"});
    if (!TraceOut.empty() && !Ctx.Spans.writeChrome(TraceOut))
      std::fprintf(stderr, "warning: cannot write %s\n", TraceOut.c_str());
    for (const char *Other : WorkloadNames)
      if (WorkloadName != Other)
        OthersCorrect &=
            otherLayers(Other, static_cast<std::uint64_t>(Seed), Metrics);
  }

  printFailures(Ctx.Ops);
  std::fprintf(stderr, "rounds: %u", Ctx.Round);
  if (!SetupTimes.empty()) {
    std::fprintf(stderr, ", cold set-up host times:");
    for (double T : SetupTimes)
      std::fprintf(stderr, " %.4f", T);
    std::fprintf(stderr, " s");
  }
  std::fprintf(stderr, "\ncalibration: median %.2f ns per access\n",
               runCalibrationSeconds() * 1e9 / 500000);
  Ctx.Host.summarize(stderr);
  printJson(Ctx.Ops, Ctx.Ops.correct() && OthersCorrect, Metrics);
  return 0;
}
