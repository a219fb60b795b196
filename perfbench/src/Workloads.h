//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the cfv repo benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef CFV_PERFBENCH_WORKLOADS_H
#define CFV_PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Trace.h"

namespace perfbench {

/// Each returns 0 on success and fills \p Out; non-zero means the run
/// could not be carried out (a message is on stderr).

/// Closed loop over the paper's Fig 8-13 jobs, in process.
int runPaperBatch(const Args &A, Tracer &T, Outcome &Out);

/// Open loop over loopback against an in-process net::Server: warm keys
/// at a light and then a heavy rate.
int runServe(const Args &A, Tracer &T, Outcome &Out);

} // namespace perfbench

#endif // CFV_PERFBENCH_WORKLOADS_H
