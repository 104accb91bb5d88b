#include "svc/state_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>

#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "common/codec.hpp"
#include "obs/recorder/recorder.hpp"

// --- field lists ------------------------------------------------------------
// Each layout is stated once, as a field list templated on the codec
// (common/codec.hpp): a ByteWriter runs it over a const object, a
// ByteReader over a mutable one. They live in namespace codec, where the
// codec looks up the field list of a struct nested in another.

namespace dbs::codec {

void fields(auto& io, Of<Credentials> auto& c) {
  io(c.user, c.group, c.account, c.job_class, c.qos);
}

void fields(auto& io, Of<rms::JobSpec> auto& s) {
  io(s.name, s.cred, s.cores, s.ppn, s.walltime, s.exclusive_priority,
     s.preemptible, s.malleable_min, s.type_tag);
}

void fields(auto& io, Of<wl::Behavior> auto& b) {
  io(b.static_runtime, b.evolving, b.first_ask_frac, b.retry_frac,
     b.ask_cores, b.negotiation_timeout, b.malleable);
}

void fields(auto& io, Of<cluster::NodeShare> auto& s) { io(s.node, s.cores); }

void fields(auto& io, Of<cluster::Placement> auto& p) { io(p.shares); }

void fields(auto& io, Of<rms::AppState> auto& a) {
  io(a.kind, a.ints, a.doubles);
}

void fields(auto& io, Of<rms::Job::Restore> auto& r) {
  io(r.state);
  DBS_REQUIRE(r.state <= rms::JobState::Cancelled,
              "snapshot job state out of range");
  io(r.start, r.end, r.placement, r.backfilled, r.dyn_requests_made,
     r.dyn_grants, r.dyn_rejects);
}

void fields(auto& io, Of<svc::SystemState::JobEntry> auto& e) {
  io(e.id, e.spec, e.submit, e.restore, e.app);
}

void fields(auto& io, Of<rms::DynRequest> auto& d) {
  io(d.id, d.job, d.extra_cores, d.submitted, d.attempt, d.deadline);
}

void fields(auto& io, Of<rms::DynAsk> auto& a) {
  io(a.at, a.extra_cores, a.timeout);
}

void fields(auto& io, Of<rms::DynRelease> auto& r) { io(r.at, r.cores); }

void fields(auto& io, Of<rms::MomManager::RuntimeState> auto& m) {
  io(m.job, m.cores, m.finish_at, m.has_ask, m.ask, m.ask_attempt,
     m.has_release, m.release);
}

void fields(auto& io, Of<core::Fairshare::State> auto& f) {
  io(f.window_start, f.windows);
}

void fields(auto& io, Of<core::DfsEngine::State> auto& d) {
  io(d.interval_start, d.entities, d.job_delays);
}

void fields(auto& io, Of<core::MauiScheduler::ServiceState> auto& s) {
  io(s.iterations, s.last_usage_update, s.poll_pending, s.poll_at,
     s.fairshare, s.dfs);
}

void fields(auto& io, Of<metrics::JobRecord> auto& j) {
  io(j.id, j.name, j.user, j.type_tag, j.cores_requested, j.cores_peak,
     j.submit, j.start, j.end, j.backfilled, j.evolving, j.dyn_requests,
     j.dyn_grants, j.dyn_rejects, j.requeues, j.malleable_shrinks);
}

void fields(auto& io, Of<metrics::Recorder::StreamTotals> auto& t) {
  io(t.submitted, t.completed, t.backfilled, t.evolving, t.satisfied_dyn,
     t.granted_dyn_requests, t.wait_sum, t.turnaround_sum, t.max_wait);
}

void fields(auto& io, Of<metrics::Recorder::State> auto& m) {
  io(m.totals, m.usage_integral, m.last_usage_t, m.last_used,
     m.first_submit, m.last_finish, m.live);
}

/// The snapshot file: magic and version, then the image.
void fields(auto& io, Of<svc::SystemState> auto& s) {
  std::uint32_t magic = svc::kSnapshotMagic;
  std::uint32_t version = svc::kSnapshotVersion;
  io(magic);
  DBS_REQUIRE(magic == svc::kSnapshotMagic, "not a DBSS snapshot");
  io(version);
  DBS_REQUIRE(version == svc::kSnapshotVersion,
              "unsupported snapshot version " + std::to_string(version));
  io(s.now, s.next_job, s.next_request, s.jobs, s.dyn_fifo, s.hints,
     s.node_states, s.moms, s.scheduler, s.metrics, s.last_admitted,
     s.wal_ingest, s.wal_decisions, s.rng);
}

/// A WAL ingest frame's payload.
void fields(auto& io, Of<svc::IngestRecord> auto& r) {
  io(r.seq, r.kind);
  DBS_REQUIRE(r.kind == svc::IngestKind::Submit ||
                  r.kind == svc::IngestKind::Cancel,
              "WAL ingest kind out of range");
  io(r.requested, r.admitted, r.spec, r.behavior, r.job);
}

}  // namespace dbs::codec

namespace dbs::svc {
namespace {

// --- file helpers ----------------------------------------------------------

void write_all(int fd, const unsigned char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      DBS_REQUIRE(false, "write failed: " + path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_checked(int fd, const std::string& path) {
  DBS_REQUIRE(::fsync(fd) == 0, "fsync failed: " + path);
}

/// fsyncs the directory containing `path` so a rename/create within it is
/// durable.
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  const std::string d = dir.empty() ? std::string(".") : dir.string();
  const int fd = ::open(d.c_str(), O_RDONLY | O_DIRECTORY);
  DBS_REQUIRE(fd >= 0, "cannot open directory for fsync: " + d);
  fsync_checked(fd, d);
  ::close(fd);
}

[[nodiscard]] std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DBS_REQUIRE(in.good(), "cannot open file: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<unsigned char> data(static_cast<std::size_t>(size));
  if (size > 0)
    in.read(reinterpret_cast<char*>(data.data()), size);
  DBS_REQUIRE(in.good(), "read failed: " + path);
  return data;
}

/// The snapshot-<decisions>.dbss files in `state_dir` with their decision
/// counts, newest (most decisions covered) first.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& state_dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> out;
  if (!fs::is_directory(state_dir)) return out;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".dbss")) continue;
    const std::string digits = name.substr(9, name.size() - 9 - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

// --- system capture/restore ------------------------------------------------

SystemState capture_state(batch::BatchSystem& system) {
  SystemState s;
  s.now = system.simulator().now();

  rms::Server& server = system.server();
  s.next_job = server.next_job_id_raw();
  s.next_request = server.next_request_id_raw();
  for (const rms::Job* job : server.jobs().all()) {
    SystemState::JobEntry e;
    e.id = job->id();
    e.spec = job->spec();
    e.submit = job->submit_time();
    e.restore.state = job->state();
    if (job->started()) e.restore.start = job->start_time();
    if (job->finished()) e.restore.end = job->end_time();
    e.restore.placement = job->placement();
    e.restore.backfilled = job->was_backfilled();
    e.restore.dyn_requests_made = job->dyn_requests_made();
    e.restore.dyn_grants = job->dyn_grants();
    e.restore.dyn_rejects = job->dyn_rejects();
    DBS_REQUIRE(job->app().save_state(e.app),
                "application model does not support snapshotting");
    s.jobs.push_back(std::move(e));
  }
  const auto& fifo = server.jobs().dyn_requests();
  s.dyn_fifo.assign(fifo.begin(), fifo.end());
  s.hints = server.save_availability_hints();

  for (const auto& node : system.cluster().nodes())
    s.node_states.push_back(static_cast<std::uint8_t>(node.state()));

  s.moms = system.moms().save_state();
  s.scheduler = system.scheduler().save_service_state();
  s.metrics = system.recorder().save_state();
  return s;
}

void restore_state(batch::BatchSystem& system, const SystemState& s) {
  sim::Simulator& sim = system.simulator();
  rms::Server& server = system.server();
  DBS_REQUIRE(server.jobs().size() == 0 && server.next_job_id_raw() == 0,
              "restore needs a freshly constructed system");
  sim.restore_clock(s.now);
  server.restore_counters(s.next_job, s.next_request);

  // Jobs first (in id order, as encoded): everything else references them.
  for (const auto& e : s.jobs) {
    auto app = apps::restore_application(e.app);
    server.restore_job(
        rms::Job::restore(e.id, e.spec, std::move(app), e.submit, e.restore));
  }
  for (const auto& d : s.dyn_fifo) server.restore_dyn_request(d);
  for (const auto& [job, at] : s.hints)
    server.restore_availability_hint(job, at);

  // Cluster: replay the running jobs' placements while every node is still
  // Up (Node::allocate requires an available node), then apply the saved
  // node states. Completed/cancelled jobs keep their historical placement
  // on the Job record but hold nothing in the cluster.
  cluster::Cluster& cl = system.cluster();
  for (const rms::Job* job : server.jobs().all()) {
    if (!job->is_running()) continue;
    for (const auto& share : job->placement().shares)
      cl.node(share.node).allocate(job->id(), share.cores);
  }
  DBS_REQUIRE(s.node_states.size() == cl.node_count(),
              "snapshot node count does not match the cluster");
  for (std::size_t i = 0; i < s.node_states.size(); ++i) {
    DBS_REQUIRE(
        s.node_states[i] <= static_cast<std::uint8_t>(
                                cluster::NodeState::Offline),
        "snapshot node state out of range");
    const auto state = static_cast<cluster::NodeState>(s.node_states[i]);
    if (state != cluster::NodeState::Up)
      cl.set_node_state(NodeId(i), state);
  }
  cl.check_invariants();

  // Re-arm every reconstructible pending event: mom completions and
  // ask/release descriptors, deferred retirements, the scheduler poll.
  for (const auto& m : s.moms) system.moms().restore_runtime(m);
  server.rearm_retirements();
  system.scheduler().restore_service_state(s.scheduler);
  system.recorder_mut().restore_state(s.metrics);
}

// --- snapshot codec --------------------------------------------------------

std::vector<unsigned char> encode_state(const SystemState& s) {
  std::vector<unsigned char> out;
  codec::ByteWriter write(out);
  write(s);
  return out;
}

SystemState decode_state(const unsigned char* data, std::size_t size) {
  SystemState s;
  codec::ByteReader read(data, size, "snapshot");
  read(s);
  read.finish();
  return s;
}

SystemState decode_state(const std::vector<unsigned char>& b) {
  return decode_state(b.data(), b.size());
}

// --- WAL payload codecs ----------------------------------------------------

std::vector<unsigned char> encode_ingest(const IngestRecord& r) {
  std::vector<unsigned char> out;
  codec::ByteWriter write(out);
  write(r);
  return out;
}

IngestRecord decode_ingest(const unsigned char* data, std::size_t size) {
  IngestRecord r;
  codec::ByteReader read(data, size, "WAL ingest record");
  read(r);
  read.finish();
  return r;
}

// --- WAL writer ------------------------------------------------------------

WalWriter::WalWriter(const std::string& path, std::uint64_t keep_bytes)
    : path_(path) {
  if (keep_bytes == 0) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    DBS_REQUIRE(fd_ >= 0, "cannot create WAL: " + path);
    std::vector<unsigned char> header;
    codec::ByteWriter write(header);
    write(kWalMagic, kWalVersion);
    write_all(fd_, header.data(), header.size(), path_);
    fsync_checked(fd_, path_);
    fsync_parent_dir(path_);
  } else {
    DBS_REQUIRE(keep_bytes >= kWalHeaderSize,
                "WAL keep offset inside the header");
    fd_ = ::open(path.c_str(), O_WRONLY, 0644);
    DBS_REQUIRE(fd_ >= 0, "cannot open WAL: " + path);
    DBS_REQUIRE(::ftruncate(fd_, static_cast<off_t>(keep_bytes)) == 0,
                "cannot truncate WAL: " + path);
    DBS_REQUIRE(::lseek(fd_, 0, SEEK_END) ==
                    static_cast<off_t>(keep_bytes),
                "cannot seek WAL: " + path);
    fsync_checked(fd_, path_);
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (!buffer_.empty())
      write_all(fd_, buffer_.data(), buffer_.size(), path_);
    ::fsync(fd_);
    ::close(fd_);
  }
}

template <class Payload>
void WalWriter::append_frame(std::uint8_t type, const Payload& payload) {
  codec::ByteWriter write(buffer_);
  write(type, std::uint32_t{0});
  const std::size_t start = buffer_.size();
  write(payload);
  codec::store_le(buffer_.data() + start - 4,
                  static_cast<std::uint32_t>(buffer_.size() - start));
}

void WalWriter::append_ingest(const IngestRecord& r) {
  append_frame(kWalIngest, r);
  ++ingest_;
}

void WalWriter::append_decision(Time at, std::uint64_t iteration,
                                const rms::Decision& d) {
  append_frame(kWalDecision, obs::rec::decision_record(at, iteration, d));
  ++decisions_;
}

void WalWriter::sync() {
  if (!buffer_.empty()) {
    write_all(fd_, buffer_.data(), buffer_.size(), path_);
    buffer_.clear();
  }
  fsync_checked(fd_, path_);
}

// --- WAL reader ------------------------------------------------------------

WalContents read_wal(const std::string& path) {
  WalContents out;
  if (!std::filesystem::exists(path)) {
    out.valid_bytes = 0;
    return out;
  }
  const std::vector<unsigned char> data = read_file(path);
  DBS_REQUIRE(data.size() >= kWalHeaderSize, "WAL shorter than its header");
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  codec::ByteReader header(data.data(), kWalHeaderSize, "WAL header");
  header(magic, version);
  DBS_REQUIRE(magic == kWalMagic, "not a DBSW WAL");
  DBS_REQUIRE(version == kWalVersion,
              "unsupported WAL version " + std::to_string(version));

  std::size_t pos = kWalHeaderSize;
  // Anything that fails to parse past this point is a torn tail from a
  // crash mid-append: stop at the last complete record rather than throw.
  while (pos + 5 <= data.size()) {
    const std::uint8_t type = data[pos];
    const auto len = codec::load_le<std::uint32_t>(data.data() + pos + 1);
    if (pos + 5 + len > data.size()) break;
    const unsigned char* payload = data.data() + pos + 5;
    if (type == kWalIngest) {
      IngestRecord rec;
      try {
        rec = decode_ingest(payload, len);
      } catch (const precondition_error&) {
        break;
      }
      out.ingest.push_back(std::move(rec));
    } else if (type == kWalDecision && len == obs::rec::kRecordSize) {
      out.decisions.push_back(obs::rec::decode_record(payload));
    } else {
      break;
    }
    pos += 5 + len;
  }
  out.valid_bytes = pos;
  return out;
}

// --- state directory layout ------------------------------------------------

std::string wal_path(const std::string& state_dir) {
  return state_dir + "/wal.dbsw";
}

std::string snapshot_path(const std::string& state_dir,
                          std::uint64_t decisions) {
  return state_dir + "/snapshot-" + std::to_string(decisions) + ".dbss";
}

void write_snapshot(const std::string& state_dir, const SystemState& s) {
  const std::vector<unsigned char> bytes = encode_state(s);
  const std::string final_path = snapshot_path(state_dir, s.wal_decisions);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DBS_REQUIRE(fd >= 0, "cannot create snapshot: " + tmp_path);
  write_all(fd, bytes.data(), bytes.size(), tmp_path);
  fsync_checked(fd, tmp_path);
  ::close(fd);
  DBS_REQUIRE(::rename(tmp_path.c_str(), final_path.c_str()) == 0,
              "cannot rename snapshot into place: " + final_path);
  fsync_parent_dir(final_path);
}

std::optional<SystemState> load_best_snapshot(const std::string& state_dir,
                                              std::uint64_t wal_ingest,
                                              std::uint64_t wal_decisions) {
  // The WAL-consistency check below skips snapshots from a future the
  // truncated WAL no longer reaches.
  for (const auto& [decisions, path] : list_snapshots(state_dir)) {
    SystemState s;
    try {
      s = decode_state(read_file(path));
    } catch (const precondition_error&) {
      continue;  // unreadable/corrupt snapshot: an older one still works
    }
    if (s.wal_decisions <= wal_decisions && s.wal_ingest <= wal_ingest)
      return s;
  }
  return std::nullopt;
}

std::size_t prune_snapshots(const std::string& state_dir, std::size_t keep) {
  if (keep == 0) return 0;
  const auto snapshots = list_snapshots(state_dir);
  std::size_t removed = 0;
  std::error_code ec;
  for (std::size_t i = keep; i < snapshots.size(); ++i)
    if (std::filesystem::remove(snapshots[i].second, ec)) ++removed;
  return removed;
}

}  // namespace dbs::svc
