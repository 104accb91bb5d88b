#include "core/dfs_policy.hpp"

#include "common/assert.hpp"

namespace dbs::core {

std::string_view to_string(DfsPolicy p) {
  switch (p) {
    case DfsPolicy::None: return "NONE";
    case DfsPolicy::SingleJobDelay: return "DFSSINGLEJOBDELAY";
    case DfsPolicy::TargetDelay: return "DFSTARGETDELAY";
    case DfsPolicy::SingleAndTargetDelay: return "DFSSINGLEANDTARGETDELAY";
  }
  return "?";
}

std::string_view to_string(DfsEntityKind k) {
  switch (k) {
    case DfsEntityKind::User: return "user";
    case DfsEntityKind::Group: return "group";
    case DfsEntityKind::Account: return "account";
    case DfsEntityKind::JobClass: return "class";
    case DfsEntityKind::Qos: return "qos";
  }
  return "?";
}

const std::unordered_map<std::string, DfsEntityLimits>& DfsConfig::map_of(
    DfsEntityKind kind) const {
  switch (kind) {
    case DfsEntityKind::User: return user;
    case DfsEntityKind::Group: return group;
    case DfsEntityKind::Account: return account;
    case DfsEntityKind::JobClass: return job_class;
    case DfsEntityKind::Qos: return qos;
  }
  DBS_ASSERT(false, "unreachable");
  return user;
}

std::unordered_map<std::string, DfsEntityLimits>& DfsConfig::map_of(
    DfsEntityKind kind) {
  return const_cast<std::unordered_map<std::string, DfsEntityLimits>&>(
      static_cast<const DfsConfig*>(this)->map_of(kind));
}

const DfsEntityLimits& DfsConfig::limits_of(DfsEntityKind kind,
                                            const std::string& name) const {
  const auto& m = map_of(kind);
  auto it = m.find(name);
  return it == m.end() ? defaults : it->second;
}

void DfsConfig::validate() const {
  DBS_REQUIRE(interval > Duration::zero(), "DFSINTERVAL must be positive");
  DBS_REQUIRE(decay >= 0.0 && decay <= 1.0, "DFSDECAY must be in [0,1]");
  const auto check = [](const DfsEntityLimits& l) {
    DBS_REQUIRE(!l.single_delay.is_negative(),
                "DFSSINGLEDELAYTIME must be non-negative");
    DBS_REQUIRE(!l.target_delay.is_negative(),
                "DFSTARGETDELAYTIME must be non-negative");
  };
  check(defaults);
  for (const DfsEntityKind kind : kAllDfsEntityKinds)
    for (const auto& [name, limits] : map_of(kind)) {
      DBS_REQUIRE(!name.empty(), "entity name cannot be empty");
      check(limits);
    }
}

const std::string& entity_name(const Credentials& cred, DfsEntityKind kind) {
  switch (kind) {
    case DfsEntityKind::User: return cred.user;
    case DfsEntityKind::Group: return cred.group;
    case DfsEntityKind::Account: return cred.account;
    case DfsEntityKind::JobClass: return cred.job_class;
    case DfsEntityKind::Qos: return cred.qos;
  }
  DBS_ASSERT(false, "unreachable");
  return cred.user;
}

}  // namespace dbs::core
