//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "util/Clock.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

Rusage Rusage::now() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return {U.ru_minflt, U.ru_majflt, U.ru_nvcsw, U.ru_nivcsw};
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
}

void perfbench::addRusage(Outcome &Out, const Rusage &D) {
  Out.add("os.minflt", static_cast<double>(D.MinFlt), "count");
  Out.add("os.majflt", static_cast<double>(D.MajFlt), "count");
  Out.add("os.nvcsw", static_cast<double>(D.Nvcsw), "count");
  Out.add("os.nivcsw", static_cast<double>(D.Nivcsw), "count");
}

bool perfbench::digestsAgree(double A, double B) {
  return std::fabs(A - B) <=
         1e-9 * std::max(1.0, std::max(std::fabs(A), std::fabs(B)));
}

double perfbench::wireRounded(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return std::strtod(Buf, nullptr);
}

double perfbench::nowSeconds() { return cfv::monotonicSeconds(); }
