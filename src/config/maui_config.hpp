// Parser for the Maui-style configuration format of the paper's Fig. 6:
//
//   DFSPOLICY         DFSSINGLEANDTARGETDELAY
//   DFSINTERVAL       06:00:00
//   DFSDECAY          0.4
//   USERCFG[user01]   DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \  # joined
//                     DFSSINGLEDELAYTIME=0
//   GROUPCFG[group05] DFSTARGETDELAYTIME=04:00:00
//
// '#' starts a comment, a '\' ending a line (before any comment) joins
// the next line to it, keys are case-insensitive, durations are plain
// seconds or [HH:]MM:SS.
// Besides the DFS parameters the parser understands the scheduler knobs
// (RESERVATIONDEPTH, RESERVATIONDELAYDEPTH, BACKFILL, priority weights,
// fairshare, PREEMPTION, DYNPARTITION, ...) and per-entity PRIORITY /
// FSTARGET settings.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler_config.hpp"

namespace dbs::cfg {

struct ParseIssue {
  int line = 0;
  std::string message;
};

struct ParseResult {
  core::SchedulerConfig config;
  std::vector<ParseIssue> issues;

  [[nodiscard]] bool ok() const { return issues.empty(); }
};

/// Parses `text`, collecting issues instead of failing fast. Unknown keys
/// are reported as issues; recognized settings are applied regardless.
[[nodiscard]] ParseResult parse_maui_config(std::string_view text);

/// Like parse_maui_config but throws precondition_error listing the first
/// issue. Convenient for examples/tests.
[[nodiscard]] core::SchedulerConfig parse_maui_config_or_throw(
    std::string_view text);

/// Renders the DFS-related part of a config back into Fig. 6 syntax.
[[nodiscard]] std::string render_dfs_config(const core::DfsConfig& dfs);

}  // namespace dbs::cfg
