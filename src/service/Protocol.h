//===-- service/Protocol.h - NDJSON line classification ---------*- C++ -*-===//
//
// The cfv_serve wire protocol, factored out of the tool so the line
// classification logic is a library function: net::Server drives it for
// real traffic and the verification harness's protocol fuzzer
// (verify/ServeFuzz) drives it with adversarial bytes -- both exercise the
// exact code that faces the network.
//
//===----------------------------------------------------------------------===//

#ifndef CFV_SERVICE_PROTOCOL_H
#define CFV_SERVICE_PROTOCOL_H

#include "service/Service.h"
#include "util/Status.h"

#include <string>

namespace cfv {
namespace service {

/// What one input line means.  The protocol answers every line except
/// Empty and HttpGet with exactly one NDJSON response line.
enum class LineKind {
  Empty,      ///< blank line: ignored
  HttpGet,    ///< raw "GET ..." -- one-shot HTTP Prometheus scrape
  Shutdown,   ///< {"cmd":"shutdown"}
  Stats,      ///< {"cmd":"stats"}
  Metrics,    ///< {"cmd":"metrics"}
  Backends,   ///< {"cmd":"backends"} -- compiled/available SIMD tiers
  UnknownCmd, ///< {"cmd":"..."} with an unrecognized verb
  Malformed,  ///< not valid JSON
  BadRequest, ///< valid JSON, rejected by parseRequest
  Request     ///< an admissible work request
};
const char *lineKindName(LineKind K);

struct ClassifiedLine {
  LineKind Kind = LineKind::Empty;
  /// The "id" the line carried, echoed on error responses ("" if none).
  std::string Id;
  /// Filled for Malformed / UnknownCmd / BadRequest.
  Status Error;
  /// Filled for Request.
  ServeRequest Request;
};

/// Classifies one line of input (without its trailing newline).  Total:
/// any byte sequence yields a ClassifiedLine, never an exception.
ClassifiedLine classifyLine(const std::string &Line);

//===----------------------------------------------------------------------===//
// Shared verb renderers
//
// The response bodies for the introspection verbs and the error channel,
// rendered by net::Server for both cfv_serve transports (stdin and
// --port), so the wire schema cannot drift between them.
//===----------------------------------------------------------------------===//

/// {"cmd":"stats"}: cache + scheduler counters plus the merged metrics
/// registry.
std::string statsJson(const Service &S);

/// {"cmd":"metrics"}: the Prometheus exposition, JSON-wrapped.
std::string metricsJson();

/// {"cmd":"backends"}: the compiled/available SIMD tier matrix plus the
/// tier the process-wide selection resolves to.
std::string backendsJson();

/// One structured NDJSON error response echoing \p Id ("" omits it).
std::string errorJson(const std::string &Id, const Status &S);

} // namespace service
} // namespace cfv

#endif // CFV_SERVICE_PROTOCOL_H
