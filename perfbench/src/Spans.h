//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records one span (name, host start/end, parent, operation id) around
/// every call the benchmark makes into an fft3d layer. Spans stay in
/// memory while the run measures and are written as Chrome trace JSON
/// at the end. When disabled, opening a scope costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Static string: "<layer>.<call>".
  const char *Name = "";
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
  /// Index of the enclosing span, -1 for a top-level span.
  int Parent = -1;
  std::uint64_t OpId = 0;
};

class SpanRecorder {
public:
  class Scope {
  public:
    Scope(SpanRecorder *R, int Index) : R(R), Index(Index) {}
    Scope(Scope &&O) noexcept : R(O.R), Index(O.Index) { O.R = nullptr; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope();

  private:
    SpanRecorder *R;
    int Index;
  };

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span named \p Name (static string) for operation \p OpId.
  Scope scope(const char *Name, std::uint64_t OpId = 0);

  const std::vector<Span> &spans() const { return Spans; }

  /// Sum of durations (seconds) and count of spans named \p Name.
  double seconds(const char *Name) const;
  std::uint64_t count(const char *Name) const;

  /// Writes the spans as Chrome trace_event JSON ("X" events, one thread,
  /// microsecond timestamps, parent and operation id as args).
  bool writeChrome(const std::string &Path) const;

private:
  bool Enabled = false;
  std::vector<Span> Spans;
  int Open = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
