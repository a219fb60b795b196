//===- perfbench/src/Trace.cpp - Benchmark-side span recorder -------------===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <cstdio>
#include <unordered_map>

using namespace perfbench;

uint64_t Tracer::reserve() {
  if (!active())
    return 0;
  return NextId++;
}

uint64_t Tracer::record(std::string Name, const char *Layer, uint64_t Parent,
                        uint64_t Req, double Start, double Dur, uint64_t Id) {
  if (!active())
    return 0;
  if (Id == 0)
    Id = NextId++;
  Spans.push_back({std::move(Name), Layer, Id, Parent, Req, Start, Dur});
  return Id;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":\"%s\",\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"req\":%llu}}%s\n",
                 S.Name.c_str(), S.Layer, S.Start * 1e6, S.Dur * 1e6, S.Layer,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Req),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(F) == 0;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::unordered_map<uint64_t, double> ChildSum;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      ChildSum[S.Parent] += S.Dur;
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    const auto It = ChildSum.find(S.Id);
    const double Covered = It == ChildSum.end() ? 0.0 : It->second;
    Self[S.Layer] += S.Dur > Covered ? S.Dur - Covered : 0.0;
  }
  return Self;
}

ScopedSpan::ScopedSpan(Tracer &T, std::string Name, const char *Layer,
                       uint64_t Parent, uint64_t Req)
    : T(T), Name(std::move(Name)), Layer(Layer), Parent(Parent), Req(Req),
      Id(T.reserve()), Start(nowSeconds()) {}

double ScopedSpan::close() {
  if (!Closed) {
    Closed = true;
    Dur = nowSeconds() - Start;
    if (Id != 0)
      T.record(std::move(Name), Layer, Parent, Req, Start, Dur, Id);
  }
  return Dur;
}
