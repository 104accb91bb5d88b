// swfgen: emit a deterministic synthetic SWF trace on stdout (or to a
// file), for bench scales and CI parity checks against tools/gen_swf.py
// (`swfgen --help` lists the flags).
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "workload/swf/swf_gen.hpp"

#include "flags.hpp"

namespace {

int run(int argc, char** argv) {
  dbs::wl::swf::SwfGenParams params;
  std::string out_path;
  dbs::tools::Flags flags("swfgen");
  // The generator divides by the interarrival mean, the user count and the
  // runtime spread, and a machine needs a processor: those start at 1.
  flags.integer("--jobs", params.jobs, 0, "N", "jobs in the trace");
  flags.integer("--seed", params.seed, 0, "S", "generator seed");
  flags.integer("--max-procs", params.max_procs, 1, "P",
                "processors of the machine in the header");
  flags.integer("--users", params.users, 1, "U", "distinct users");
  flags.integer("--mean-interarrival", params.mean_interarrival_s, 1, "SEC",
                "mean seconds between submissions");
  flags.integer("--min-run", params.min_run_s, 0, "SEC",
                "shortest runtime, seconds");
  flags.integer("--run-spread", params.run_spread_s, 1, "SEC",
                "runtimes span [min-run, min-run + run-spread) seconds");
  flags.text("--out", out_path, "FILE", "write the trace here, not stdout");
  if (const std::optional<int> stop = flags.parse(argc, argv)) return *stop;

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
