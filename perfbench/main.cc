// perfbench: PathDump's end-to-end + per-layer benchmark program.
//
//   perfbench --workload <poll_session|standing_shm|datapath_alarms>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves traced and
// untraced requests and prints the per-layer metrics, self time per layer
// and the tracing overhead (see README.md).  The last line of standard
// output is the JSON result; the exit code is nonzero when a correctness
// check failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <poll_session|standing_shm|datapath_alarms> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) {
    return Usage();
  }

  perfbench::RunResult r;
  try {
    if (opt.workload == "poll_session") {
      r = perfbench::RunPollSession(opt);
    } else if (opt.workload == "standing_shm") {
      r = perfbench::RunStandingShm(opt);
    } else if (opt.workload == "datapath_alarms") {
      r = perfbench::RunDatapathAlarms(opt);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    // The workload's objects (threads, shm segments) were released while
    // unwinding; report no result.
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  r.workload = opt.workload;
  if (opt.trace) {
    const std::vector<perfbench::SpanRecord> spans = perfbench::CollectSpans();
    perfbench::AddSelfTimes(spans, r);
    if (!opt.trace_out.empty()) {
      perfbench::WriteChromeTrace(opt.trace_out, spans);
    }
  }
  return perfbench::Report(opt, r);
}
