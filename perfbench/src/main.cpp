// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload replay_shallow|replay_deep_dyn|service_durable
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Repeats the workload for S seconds and prints a human report followed by
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run also
// makes one traced repetition and reports the per-layer set instead, and
// writes DIR/trace_<workload>.json (Chrome trace-event format).
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload replay_shallow|replay_deep_dyn|"
               "service_durable --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  return 2;
}

void print_json(const pb::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const pb::Metric& m : r.metrics) {
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(arg + " needs a value");
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!have_seed || !have_seconds) return usage("--seed and --seconds are required");
  if (!(opt.seconds > 0.0) || opt.seconds > 3600.0)
    return usage("--seconds must be in (0, 3600]");

  try {
    std::filesystem::create_directories(opt.work_dir);
    pb::Result r;
    if (opt.workload == "replay_shallow" || opt.workload == "replay_deep_dyn")
      r = pb::run_replay(opt);
    else if (opt.workload == "service_durable")
      r = pb::run_service(opt);
    else
      return usage("unknown workload '" + opt.workload + "'");

    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << (opt.trace ? " (traced)" : "") << "\n";
    for (const std::string& note : r.notes) std::cout << note << "\n";
    for (const std::string& m : r.missing)
      std::cout << "missing (JSON value " << pb::kMissing << "): " << m << "\n";
    std::cout << "failed_ratio "
              << (r.attempted == 0 ? 0.0
                                   : static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted))
              << " (" << r.failed << " of " << r.attempted << ")\n";
    for (const pb::Metric& m : r.metrics) {
      if (!std::isfinite(m.value))
        throw std::runtime_error("metric " + m.name + " is not finite");
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const pb::Metric& m : r.report_only)
      std::printf("  %-34s %16.6g %s (report only)\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::fflush(stdout);
    if (r.attempted == 0) throw std::runtime_error("nothing was attempted");
    print_json(r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
