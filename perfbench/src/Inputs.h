//===- perfbench/src/Inputs.h - Seeded inputs and closed forms --*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the library is generated here from the
/// run's seed, together with the result the method must produce, computed
/// without the library:
///
///  - multi-tone fields: a sum of T tones, each a single 2D frequency bin,
///    so the exact spectrum is T nonzero bins (complex input) or T
///    Hermitian pairs (real input) of known value;
///  - a shifted unit impulse, whose circular convolution with any image is
///    that image cyclically shifted.
///
/// Spectral errors are normwise: the 2-norm of the error over all bins
/// relative to the 2-norm of the exact spectrum, in float roundoff units
/// u = 2^-24.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "fft/Matrix.h"
#include "fft/RealFft2d.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness.
class SplitMix {
public:
  explicit SplitMix(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, Bound).
  std::uint64_t below(std::uint64_t Bound);

private:
  std::uint64_t State;
};

/// Float unit roundoff.
constexpr double UnitRoundoff = 1.0 / 16777216.0;

/// One 2D tone: frequency bin (K down the rows, L along a row),
/// amplitude and phase.
struct Tone {
  std::uint64_t K = 0;
  std::uint64_t L = 0;
  double Amp = 1.0;
  double Phase = 0.0;
};

/// \p Count tones at distinct bins of an N x N grid, amplitudes in
/// [0.25, 1], phases in [0, 2 pi). With \p RealSafe every bin has
/// 0 < L < N/2, so each tone's Hermitian partner lies outside the
/// stored half spectrum.
std::vector<Tone> makeTones(SplitMix &Rng, std::uint64_t N, unsigned Count,
                            bool RealSafe);

/// x[r][c] = sum Amp * exp(i (2 pi (K r + L c) / N + Phase)).
fft3d::Matrix synthComplex(std::uint64_t N, const std::vector<Tone> &Tones);

/// x[r][c] = sum Amp * cos(2 pi (K r + L c) / N + Phase), row-major.
std::vector<double> synthReal(std::uint64_t N, const std::vector<Tone> &Tones);

/// ||X - exact||_2 / ||exact||_2 of a forward complex spectrum, in u.
/// The exact spectrum is N^2 Amp exp(i Phase) at each tone's bin and 0
/// elsewhere.
double complexSpectrumErrorU(const fft3d::Matrix &X,
                             const std::vector<Tone> &Tones);

/// The same for a half spectrum of a real field (RealSafe tones): the
/// exact value is N^2 Amp exp(i Phase) / 2 at each tone's bin.
double halfSpectrumErrorU(const fft3d::HalfSpectrum &X,
                          const std::vector<Tone> &Tones);

/// Parseval: |sum |X|^2 - N^2 sum |x|^2| / (N^2 sum |x|^2).
double parsevalRelError(const fft3d::Matrix &X, const fft3d::Matrix &In);
/// Half-spectrum form (interior bins count twice).
double parsevalRelError(const fft3d::HalfSpectrum &X,
                        const std::vector<double> &Field);

/// max |a - b| / max |b|.
double maxRelDiff(const fft3d::Matrix &A, const fft3d::Matrix &B);
double maxRelDiff(const std::vector<double> &A, const std::vector<double> &B);

/// \p Image (N x N, row-major) cyclically shifted down by \p Dr rows and
/// right by \p Dc columns: out[r][c] = img[r - Dr][c - Dc].
std::vector<double> cyclicShift(const std::vector<double> &Image,
                                std::uint64_t N, std::uint64_t Dr,
                                std::uint64_t Dc);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
