//===- perfbench/src/Inputs.cpp - Seeded inputs and closed forms ----------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <set>
#include <utility>

using namespace perfbench;
using fft3d::CplxD;
using fft3d::CplxF;
using fft3d::HalfSpectrum;
using fft3d::Matrix;

std::uint64_t SplitMix::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::uint64_t SplitMix::below(std::uint64_t Bound) { return next() % Bound; }

std::vector<Tone> perfbench::makeTones(SplitMix &Rng, std::uint64_t N,
                                       unsigned Count, bool RealSafe) {
  std::vector<Tone> Tones;
  std::set<std::pair<std::uint64_t, std::uint64_t>> Used;
  while (Tones.size() != Count) {
    Tone T;
    T.K = Rng.below(N);
    T.L = RealSafe ? 1 + Rng.below(N / 2 - 1) : Rng.below(N);
    T.Amp = 0.25 + 0.75 * Rng.uniform();
    T.Phase = 2.0 * std::numbers::pi * Rng.uniform();
    if (Used.insert({T.K, T.L}).second)
      Tones.push_back(T);
  }
  return Tones;
}

namespace {

double exactNorm(const std::vector<Tone> &Tones, double Scale) {
  double Sum = 0.0;
  for (const Tone &T : Tones)
    Sum += (Scale * T.Amp) * (Scale * T.Amp);
  return std::sqrt(Sum);
}

} // namespace

namespace {

/// Per-tone phasors along the rows and along a row: the tone's value at
/// (r, c) is Amp * RowPhasor[r] * ColPhasor[c], with the phase in the
/// row factor. Each angle is reduced exactly in integers first.
struct Phasors {
  std::vector<CplxD> Row, Col;
};

std::vector<Phasors> tonePhasors(std::uint64_t N,
                                 const std::vector<Tone> &Tones) {
  std::vector<Phasors> Out(Tones.size());
  const double Step = 2.0 * std::numbers::pi / static_cast<double>(N);
  for (std::size_t T = 0; T != Tones.size(); ++T) {
    Out[T].Row.resize(N);
    Out[T].Col.resize(N);
    for (std::uint64_t I = 0; I != N; ++I) {
      Out[T].Row[I] = std::polar(
          Tones[T].Amp,
          Step * static_cast<double>(Tones[T].K * I % N) + Tones[T].Phase);
      Out[T].Col[I] =
          std::polar(1.0, Step * static_cast<double>(Tones[T].L * I % N));
    }
  }
  return Out;
}

} // namespace

Matrix perfbench::synthComplex(std::uint64_t N,
                               const std::vector<Tone> &Tones) {
  const std::vector<Phasors> P = tonePhasors(N, Tones);
  Matrix M(N, N);
  for (std::uint64_t R = 0; R != N; ++R)
    for (std::uint64_t C = 0; C != N; ++C) {
      CplxD V = 0.0;
      for (const Phasors &T : P)
        V += T.Row[R] * T.Col[C];
      M.at(R, C) = fft3d::narrow(V);
    }
  return M;
}

std::vector<double> perfbench::synthReal(std::uint64_t N,
                                         const std::vector<Tone> &Tones) {
  const std::vector<Phasors> P = tonePhasors(N, Tones);
  std::vector<double> F(N * N);
  for (std::uint64_t R = 0; R != N; ++R)
    for (std::uint64_t C = 0; C != N; ++C) {
      double V = 0.0;
      for (const Phasors &T : P)
        V += (T.Row[R] * T.Col[C]).real();
      F[R * N + C] = V;
    }
  return F;
}

namespace {

/// ||X - exact||^2 bin by bin: each tone bin's squared error plus every
/// other bin's energy. Not the spectrum's energy less the tone bins': the
/// error energy is ~1e-15 of the spectrum's, so a running total holding
/// the latter would round each small bin away.
template <typename BinFn>
double errorEnergy(std::uint64_t Rows, std::uint64_t Cols, BinFn Bin,
                   const std::vector<Tone> &Tones, double Scale) {
  std::vector<bool> IsTone(Rows * Cols, false);
  double ErrSq = 0.0;
  for (const Tone &T : Tones) {
    IsTone[T.K * Cols + T.L] = true;
    ErrSq += std::norm(Bin(T.K, T.L) - std::polar(Scale * T.Amp, T.Phase));
  }
  for (std::uint64_t R = 0; R != Rows; ++R)
    for (std::uint64_t C = 0; C != Cols; ++C)
      if (!IsTone[R * Cols + C])
        ErrSq += std::norm(Bin(R, C));
  return ErrSq;
}

} // namespace

double perfbench::complexSpectrumErrorU(const Matrix &X,
                                        const std::vector<Tone> &Tones) {
  const double Scale = static_cast<double>(X.rows()) *
                       static_cast<double>(X.cols());
  const double ErrSq = errorEnergy(
      X.rows(), X.cols(),
      [&](std::uint64_t R, std::uint64_t C) { return fft3d::widen(X.at(R, C)); },
      Tones, Scale);
  return std::sqrt(ErrSq) / exactNorm(Tones, Scale) / UnitRoundoff;
}

double perfbench::halfSpectrumErrorU(const HalfSpectrum &X,
                                     const std::vector<Tone> &Tones) {
  const double Scale = static_cast<double>(X.Rows) *
                       static_cast<double>(X.Rows) / 2.0;
  const double ErrSq = errorEnergy(
      X.Rows, X.Bins,
      [&](std::uint64_t R, std::uint64_t B) { return X.at(R, B); }, Tones,
      Scale);
  return std::sqrt(ErrSq) / exactNorm(Tones, Scale) / UnitRoundoff;
}

double perfbench::parsevalRelError(const Matrix &X, const Matrix &In) {
  double SpecEnergy = 0.0, FieldEnergy = 0.0;
  for (const CplxF &V : X.storage())
    SpecEnergy += std::norm(fft3d::widen(V));
  for (const CplxF &V : In.storage())
    FieldEnergy += std::norm(fft3d::widen(V));
  FieldEnergy *= static_cast<double>(In.elements());
  return std::abs(SpecEnergy - FieldEnergy) / FieldEnergy;
}

double perfbench::parsevalRelError(const HalfSpectrum &X,
                                   const std::vector<double> &Field) {
  const std::uint64_t Cols = (X.Bins - 1) * 2;
  double SpecEnergy = 0.0, FieldEnergy = 0.0;
  for (std::uint64_t R = 0; R != X.Rows; ++R)
    for (std::uint64_t B = 0; B != X.Bins; ++B) {
      const double Weight = (B == 0 || B == Cols / 2) ? 1.0 : 2.0;
      SpecEnergy += Weight * std::norm(X.at(R, B));
    }
  for (double V : Field)
    FieldEnergy += V * V;
  FieldEnergy *= static_cast<double>(Field.size());
  return std::abs(SpecEnergy - FieldEnergy) / FieldEnergy;
}

double perfbench::maxRelDiff(const Matrix &A, const Matrix &B) {
  double Diff = 0.0, Ref = 0.0;
  for (std::uint64_t I = 0; I != B.elements(); ++I) {
    Diff = std::max(Diff, std::abs(fft3d::widen(A.storage()[I]) -
                                   fft3d::widen(B.storage()[I])));
    Ref = std::max(Ref, std::abs(fft3d::widen(B.storage()[I])));
  }
  return Diff / Ref;
}

double perfbench::maxRelDiff(const std::vector<double> &A,
                             const std::vector<double> &B) {
  double Diff = 0.0, Ref = 0.0;
  for (std::size_t I = 0; I != B.size(); ++I) {
    Diff = std::max(Diff, std::abs(A[I] - B[I]));
    Ref = std::max(Ref, std::abs(B[I]));
  }
  return Diff / Ref;
}

std::vector<double> perfbench::cyclicShift(const std::vector<double> &Image,
                                           std::uint64_t N, std::uint64_t Dr,
                                           std::uint64_t Dc) {
  std::vector<double> Out(N * N);
  for (std::uint64_t R = 0; R != N; ++R)
    for (std::uint64_t C = 0; C != N; ++C)
      Out[R * N + C] = Image[((R + N - Dr) % N) * N + (C + N - Dc) % N];
  return Out;
}
