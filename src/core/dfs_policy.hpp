// Dynamic-fairness (DFS) configuration — the paper's §III-D parameters.
//
//   DFSPOLICY            NONE | DFSSINGLEJOBDELAY | DFSTARGETDELAY |
//                        DFSSINGLEANDTARGETDELAY
//   DFSINTERVAL          accounting interval for cumulative (target) delays
//   DFSDECAY             fraction of the accumulated delay carried into the
//                        next interval
//   per entity (USERCFG/GROUPCFG/ACCOUNTCFG/CLASSCFG/QOSCFG):
//     DFSDYNDELAYPERM    1 = this entity's queued jobs may be delayed by
//                        dynamic allocations (default), 0 = never
//     DFSSINGLEDELAYTIME max delay per queued job        (0 = unlimited)
//     DFSTARGETDELAYTIME max cumulative delay / interval (0 = unlimited)
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::core {

enum class DfsPolicy {
  None,                 ///< dynamic requests get highest priority (Dyn-HP)
  SingleJobDelay,       ///< per-job delay cap
  TargetDelay,          ///< per-entity cumulative delay cap per interval
  SingleAndTargetDelay, ///< both caps combined
};

[[nodiscard]] std::string_view to_string(DfsPolicy p);

[[nodiscard]] constexpr bool has_single(DfsPolicy p) {
  return p == DfsPolicy::SingleJobDelay || p == DfsPolicy::SingleAndTargetDelay;
}
[[nodiscard]] constexpr bool has_target(DfsPolicy p) {
  return p == DfsPolicy::TargetDelay || p == DfsPolicy::SingleAndTargetDelay;
}

/// Per-entity limits. Duration::zero() means "unlimited" (paper Fig. 6).
struct DfsEntityLimits {
  bool delay_perm = true;
  Duration single_delay = Duration::zero();
  Duration target_delay = Duration::zero();

  [[nodiscard]] bool operator==(const DfsEntityLimits&) const = default;
};

/// The credential dimensions limits can be attached to.
enum class DfsEntityKind { User, Group, Account, JobClass, Qos };

[[nodiscard]] std::string_view to_string(DfsEntityKind k);

struct DfsConfig {
  DfsPolicy policy = DfsPolicy::None;
  Duration interval = Duration::hours(6);  ///< DFSINTERVAL
  double decay = 0.0;                      ///< DFSDECAY in [0,1]

  std::unordered_map<std::string, DfsEntityLimits> user;
  std::unordered_map<std::string, DfsEntityLimits> group;
  std::unordered_map<std::string, DfsEntityLimits> account;
  std::unordered_map<std::string, DfsEntityLimits> job_class;
  std::unordered_map<std::string, DfsEntityLimits> qos;

  /// Limits applied to entities with no explicit configuration.
  DfsEntityLimits defaults;

  [[nodiscard]] const std::unordered_map<std::string, DfsEntityLimits>& map_of(
      DfsEntityKind kind) const;
  [[nodiscard]] std::unordered_map<std::string, DfsEntityLimits>& map_of(
      DfsEntityKind kind);

  /// Effective limits of a named entity (falls back to `defaults`).
  [[nodiscard]] const DfsEntityLimits& limits_of(DfsEntityKind kind,
                                                 const std::string& name) const;

  /// Throws precondition_error on invalid settings.
  void validate() const;
};

/// The entity name of `cred` along dimension `kind` ("" when unset).
[[nodiscard]] const std::string& entity_name(const Credentials& cred,
                                             DfsEntityKind kind);

inline constexpr DfsEntityKind kAllDfsEntityKinds[] = {
    DfsEntityKind::User, DfsEntityKind::Group, DfsEntityKind::Account,
    DfsEntityKind::JobClass, DfsEntityKind::Qos};

}  // namespace dbs::core
