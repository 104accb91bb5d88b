// swfgen: emit a deterministic synthetic SWF trace on stdout (or to a
// file), for bench scales and CI parity checks against tools/gen_swf.py.
//
//   swfgen --jobs N [--seed S] [--max-procs P] [--users U]
//          [--mean-interarrival SEC] [--min-run SEC] [--run-spread SEC]
//          [--out FILE]
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "workload/swf/swf_gen.hpp"

#include "flag_value.hpp"

namespace {

int usage(int code) {
  std::cerr
      << "usage: swfgen [--jobs N] [--seed S] [--max-procs P] [--users U]\n"
         "              [--mean-interarrival SEC] [--min-run SEC]\n"
         "              [--run-spread SEC] [--out FILE]\n";
  return code;
}

int run(int argc, char** argv) {
  dbs::wl::swf::SwfGenParams params;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage(2));
      return argv[++i];
    };
    // The generator divides by the interarrival mean, the user count and
    // the runtime spread, and a machine needs a processor: those start at 1.
    const auto count = [&](std::int64_t min) {
      const auto v = dbs::tools::int_flag(arg, next(), min);
      if (!v) std::exit(usage(2));
      return static_cast<std::uint64_t>(*v);
    };
    if (arg == "--jobs") {
      params.jobs = count(0);
    } else if (arg == "--seed") {
      params.seed = count(0);
    } else if (arg == "--max-procs") {
      params.max_procs = count(1);
    } else if (arg == "--users") {
      params.users = count(1);
    } else if (arg == "--mean-interarrival") {
      params.mean_interarrival_s = count(1);
    } else if (arg == "--min-run") {
      params.min_run_s = count(0);
    } else if (arg == "--run-spread") {
      params.run_spread_s = count(1);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    dbs::wl::swf::generate_swf(out, params);
    return out.good() ? 0 : 1;
  }
  dbs::wl::swf::generate_swf(std::cout, params);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Whatever escapes the tool — a rejected precondition, an allocation or
  // thread-start failure — is reported and exits 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "swfgen: " << e.what() << "\n";
    return 1;
  }
}
