#include "config/maui_config.hpp"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/string_util.hpp"
#include "common/value.hpp"

namespace dbs::cfg {

namespace {

/// The entity prefixes of Fig. 6 and the priority map each one's PRIORITY
/// fills.
struct Entity {
  std::string_view prefix;  ///< "USERCFG[", the name and "]" follow
  core::DfsEntityKind kind;
  std::unordered_map<std::string, double> core::CredPriorities::*priorities;
};
constexpr Entity kEntities[] = {
    {"USERCFG[", core::DfsEntityKind::User, &core::CredPriorities::user},
    {"GROUPCFG[", core::DfsEntityKind::Group, &core::CredPriorities::group},
    {"ACCOUNTCFG[", core::DfsEntityKind::Account,
     &core::CredPriorities::account},
    {"CLASSCFG[", core::DfsEntityKind::JobClass,
     &core::CredPriorities::job_class},
    {"QOSCFG[", core::DfsEntityKind::Qos, &core::CredPriorities::qos},
};

/// A key and the field it sets.
struct Key {
  std::string_view name;
  value::Slot slot;
};

// Where SchedulerConfig::validate, DfsConfig::validate or Fairshare bound a
// field, its key states the same bound, so the error names the line.
const value::Words<bool> kSwitch{{{"1", true}, {"0", false}, {"ON", true},
                                  {"OFF", false}, {"TRUE", true},
                                  {"FALSE", false}, {"YES", true},
                                  {"NO", false}},
                                 true};
constexpr value::Number kFinite = value::Number::finite();
constexpr value::Number kFraction{0, 1};
constexpr value::Span kDelay{Duration::zero(), kMaxDuration};
constexpr value::Span kInterval{Duration::seconds(1), kMaxDuration};

/// The keys that take one value; those named DFS* are the ones
/// render_dfs_config writes.
std::vector<Key> global_keys(core::SchedulerConfig& c) {
  using value::bind;
  using Count = value::Integer<std::size_t>;
  using P = core::DfsPolicy;
  using A = cluster::AllocationPolicy;
  const value::Words<P> dfs_policies{
      {{"NONE", P::None}, {"DFSSINGLEJOBDELAY", P::SingleJobDelay},
       {"DFSTARGETDELAY", P::TargetDelay},
       {"DFSSINGLEANDTARGETDELAY", P::SingleAndTargetDelay},
       {"DFSSINGLETARGETDELAY", P::SingleAndTargetDelay}},
      true};
  const value::Words<A> allocation_policies{
      {{"PACK", A::Pack}, {"SPREAD", A::Spread}, {"FIRSTFIT", A::FirstFit}},
      true};
  return {
      {"DFSPOLICY", bind(dfs_policies, c.dfs.policy)},
      {"DFSINTERVAL", bind(kInterval, c.dfs.interval)},
      {"DFSDECAY", bind(kFraction, c.dfs.decay)},
      {"RESERVATIONDEPTH", bind(Count{}, c.reservation_depth)},
      {"RESERVATIONDELAYDEPTH", bind(Count{}, c.reservation_delay_depth)},
      {"BACKFILL", bind(kSwitch, c.enable_backfill)},
      {"QUEUETIMEWEIGHT", bind(kFinite, c.weights.queue_time_per_minute)},
      {"XFACTORWEIGHT", bind(kFinite, c.weights.xfactor)},
      {"RESWEIGHT", bind(kFinite, c.weights.per_core)},
      {"CREDWEIGHT", bind(kFinite, c.weights.cred)},
      {"FSWEIGHT", bind(kFinite, c.weights.fairshare)},
      {"FAIRSHARE", bind(kSwitch, c.fairshare.enabled)},
      {"FSINTERVAL", bind(kInterval, c.fairshare.interval)},
      {"FSDEPTH", bind(Count{1}, c.fairshare.depth)},
      {"FSDECAY", bind(kFraction, c.fairshare.decay)},
      {"POLLINTERVAL", bind(kInterval, c.poll_interval)},
      {"PREEMPTION", bind(kSwitch, c.allow_preemption)},
      {"MALLEABLESTEAL", bind(kSwitch, c.allow_malleable_steal)},
      {"DYNPARTITION",
       bind(value::Integer<CoreCount>{}, c.dynamic_partition_cores)},
      {"MAXJOBSPERUSER", bind(Count{1}, c.max_eligible_per_user)},
      {"STAGETIMING", bind(kSwitch, c.stage_timing)},
      {"INCREMENTALPLANNING", bind(kSwitch, c.incremental_planning)},
      {"CHECKINVARIANTS", bind(kSwitch, c.check_invariants)},
      {"ALLOCATIONPOLICY", bind(allocation_policies, c.allocation_policy)},
  };
}

/// The keys of DFS limits: DFSDEFAULTCFG's, and every entity line's.
std::vector<Key> limit_keys(core::DfsEntityLimits& limits) {
  return {{"DFSDYNDELAYPERM", value::bind(kSwitch, limits.delay_perm)},
          {"DFSSINGLEDELAYTIME", value::bind(kDelay, limits.single_delay)},
          {"DFSTARGETDELAYTIME", value::bind(kDelay, limits.target_delay)}};
}

const Key* find(const std::vector<Key>& keys, std::string_view name) {
  for (const Key& key : keys)
    if (key.name == name) return &key;
  return nullptr;
}

/// Sets `key` from `token`, or reports why it cannot.
void set(const Key& key, const std::string& token, int line, ParseResult& r) {
  if (!key.slot.set(token))
    r.issues.push_back(
        {line, value::rejected(key.name, key.slot.expects, token)});
}

/// Applies KEY=VALUE pairs, each KEY one of `keys`.
void set_pairs(const std::vector<Key>& keys,
               std::span<const std::string> pairs, int line, ParseResult& r) {
  for (const std::string& kv : pairs) {
    const auto pair = split_once(kv, '=');
    if (!pair) {
      r.issues.push_back({line, "expected KEY=VALUE, got '" + kv + "'"});
    } else if (const Key* key = find(keys, to_upper(pair->first))) {
      set(*key, pair->second, line, r);
    } else {
      r.issues.push_back({line, "unknown setting '" + pair->first + "'"});
    }
  }
}

/// An entity line: its DFS limits, PRIORITY and, for users, FSTARGET.
void set_entity(const Entity& entity, const std::string& name,
                std::span<const std::string> pairs, int line,
                ParseResult& r) {
  core::SchedulerConfig& c = r.config;
  core::DfsEntityLimits limits = c.dfs.limits_of(entity.kind, name);
  std::optional<double> priority;
  std::optional<double> fs_target;
  std::vector<Key> keys = limit_keys(limits);
  keys.push_back({"PRIORITY", value::bind(kFinite, priority)});
  keys.push_back({"FSTARGET", value::bind(kFinite, fs_target)});
  set_pairs(keys, pairs, line, r);
  c.dfs.map_of(entity.kind)[name] = limits;
  if (priority) (c.cred_priorities.*entity.priorities)[name] = *priority;
  if (fs_target && entity.kind != core::DfsEntityKind::User)
    r.issues.push_back({line, "FSTARGET is only supported for USERCFG"});
  else if (fs_target)
    c.fairshare.user_targets[name] = *fs_target;
}

void parse_line(const std::vector<Key>& globals, const std::string& content,
                int line, ParseResult& r) {
  const std::vector<std::string> tokens = split(content);
  const std::string head = to_upper(tokens[0]);
  const std::span<const std::string> args(tokens.begin() + 1, tokens.end());
  if (head == "DFSDEFAULTCFG")
    return set_pairs(limit_keys(r.config.dfs.defaults), args, line, r);
  for (const Entity& entity : kEntities) {
    const std::size_t skip = entity.prefix.size();
    if (!head.starts_with(entity.prefix)) continue;
    if (head.back() != ']')
      return r.issues.push_back({line, "missing ']' in '" + tokens[0] + "'"});
    // The entity name keeps its case.
    const std::string name = tokens[0].substr(skip, head.size() - skip - 1);
    if (name.empty()) return r.issues.push_back({line, "empty entity name"});
    return set_entity(entity, name, args, line, r);
  }
  const Key* key = find(globals, head);
  if (key == nullptr)
    r.issues.push_back({line, "unknown key '" + head + "'"});
  else if (args.size() != 1)
    r.issues.push_back({line, head + " expects exactly one value"});
  else
    set(*key, args[0], line, r);
}

}  // namespace

ParseResult parse_maui_config(std::string_view text) {
  ParseResult r;
  const std::vector<Key> globals = global_keys(r.config);
  std::istringstream is{std::string(text)};
  std::string raw;
  std::string logical;  // a line and the lines a '\' joins to it
  int first = 0;        // the line it starts on
  for (int line = 1; std::getline(is, raw); ++line) {
    raw.erase(std::min(raw.find('#'), raw.size()));
    std::string_view sv = trim(raw);
    const bool continues = sv.ends_with('\\');
    if (continues) sv = trim(sv.substr(0, sv.size() - 1));
    if (logical.empty())
      first = line;
    else if (!sv.empty())
      logical += ' ';
    logical += sv;
    if (!continues && !logical.empty()) {
      parse_line(globals, logical, first, r);
      logical.clear();
    }
  }
  if (!logical.empty()) parse_line(globals, logical, first, r);
  return r;
}

core::SchedulerConfig parse_maui_config_or_throw(std::string_view text) {
  ParseResult result = parse_maui_config(text);
  if (!result.ok()) {
    const ParseIssue& first = result.issues.front();
    throw precondition_error("config line " + std::to_string(first.line) +
                             ": " + first.message);
  }
  result.config.validate();
  return std::move(result.config);
}

std::string render_dfs_config(const core::DfsConfig& dfs) {
  std::ostringstream os;
  core::SchedulerConfig shown;
  shown.dfs = dfs;
  for (const Key& key : global_keys(shown))
    if (key.name.starts_with("DFS"))
      os << std::left << std::setw(13) << key.name << key.slot.show() << "\n";
  for (const Entity& entity : kEntities)
    for (const auto& [name, limits] : dfs.map_of(entity.kind)) {
      core::DfsEntityLimits shown_limits = limits;
      os << entity.prefix << name << "]";
      for (const Key& key : limit_keys(shown_limits))
        os << " " << key.name << "=" << key.slot.show();
      os << "\n";
    }
  return os.str();
}

}  // namespace dbs::cfg
