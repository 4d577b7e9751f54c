//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace perfbench;

namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

SpanRecorder::Scope::~Scope() {
  if (!R)
    return;
  Span &S = R->Spans[static_cast<std::size_t>(Index)];
  S.EndNs = nowNs();
  R->Open = S.Parent;
}

SpanRecorder::Scope SpanRecorder::scope(const char *Name,
                                        std::uint64_t OpId) {
  if (!Enabled)
    return Scope(nullptr, -1);
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.OpId = OpId;
  S.StartNs = nowNs();
  Spans.push_back(S);
  Open = static_cast<int>(Spans.size() - 1);
  return Scope(this, Open);
}

double SpanRecorder::seconds(const char *Name) const {
  std::uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) * 1e-9;
}

std::uint64_t SpanRecorder::count(const char *Name) const {
  std::uint64_t N = 0;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      ++N;
  return N;
}

bool SpanRecorder::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %llu}}",
                 I ? ",\n" : "", S.Name,
                 static_cast<double>(S.StartNs - Origin) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I, S.Parent,
                 static_cast<unsigned long long>(S.OpId));
  }
  std::fprintf(F, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(F) == 0;
}
