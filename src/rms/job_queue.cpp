#include "rms/job_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::rms {

namespace {

std::vector<const Job*>::iterator find_slot(std::vector<const Job*>& index,
                                            JobId id) {
  return std::lower_bound(
      index.begin(), index.end(), id,
      [](const Job* entry, JobId key) { return entry->id() < key; });
}

void index_insert(std::vector<const Job*>& index, const Job& job) {
  index.insert(find_slot(index, job.id()), &job);
}

void index_erase(std::vector<const Job*>& index, const Job& job) {
  const auto pos = find_slot(index, job.id());
  DBS_ASSERT(pos != index.end() && *pos == &job, "state index out of sync");
  index.erase(pos);
}

}  // namespace

Job& JobQueue::add(std::unique_ptr<Job> job) {
  DBS_REQUIRE(job != nullptr, "null job");
  const JobId id = job->id();
  DBS_REQUIRE(!jobs_.contains(id), "duplicate job id");
  DBS_REQUIRE(order_.empty() || order_.back().first < id,
              "job ids must be added in increasing order");
  Job& ref = *job;
  jobs_.emplace(id, std::move(job));
  order_.emplace_back(id, &ref);
  // The id is the largest yet, so each index takes it at the back.
  if (ref.state() == JobState::Queued) queued_.push_back(&ref);
  if (ref.is_running()) running_.push_back(&ref);
  return ref;
}

Job& JobQueue::mark_started(JobId id, Time now, cluster::Placement placement,
                            bool backfilled) {
  Job& job = at(id);
  job.mark_started(now, std::move(placement), backfilled);
  index_erase(queued_, job);
  index_insert(running_, job);
  return job;
}

Job& JobQueue::mark_dynqueued(JobId id) {
  Job& job = at(id);
  job.mark_dynqueued();  // stays in running_
  return job;
}

Job& JobQueue::mark_running_again(JobId id) {
  Job& job = at(id);
  job.mark_running_again();  // stays in running_
  return job;
}

Job& JobQueue::mark_completed(JobId id, Time now) {
  Job& job = at(id);
  job.mark_completed(now);
  index_erase(running_, job);
  return job;
}

Job& JobQueue::mark_cancelled(JobId id, Time now) {
  Job& job = at(id);
  const bool was_queued = job.state() == JobState::Queued;
  job.mark_cancelled(now);
  index_erase(was_queued ? queued_ : running_, job);
  return job;
}

Job& JobQueue::mark_requeued(JobId id) {
  Job& job = at(id);
  job.mark_requeued();
  index_erase(running_, job);
  index_insert(queued_, job);
  return job;
}

void JobQueue::retire(JobId id) {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  DBS_REQUIRE(it->second->finished(), "only finished jobs can be retired");
  const auto pos = std::lower_bound(
      order_.begin(), order_.end(), id,
      [](const auto& entry, JobId key) { return entry.first < key; });
  DBS_ASSERT(pos != order_.end() && pos->first == id,
             "order index out of sync");
  pos->second = nullptr;
  ++order_tombstones_;
  ++retired_total_;
  jobs_.erase(it);
  maybe_compact_order();
}

void JobQueue::maybe_compact_order() {
  // Amortized: each compaction is O(order_) and removes more than half of
  // it, so the cost per retirement stays O(1). The floor keeps small
  // queues from rebuilding constantly.
  if (order_tombstones_ < 1024) return;
  if (order_tombstones_ * 2 <= order_.size()) return;
  std::erase_if(order_, [](const auto& e) { return e.second == nullptr; });
  order_tombstones_ = 0;
  first_live_ = 0;
}

std::uint64_t JobQueue::min_live_id(std::uint64_t fallback) const {
  while (first_live_ < order_.size() &&
         order_[first_live_].second == nullptr)
    ++first_live_;
  if (first_live_ >= order_.size()) return fallback;
  return order_[first_live_].first.value();
}

Job& JobQueue::at(JobId id) {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  return *it->second;
}

const Job& JobQueue::at(JobId id) const {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  return *it->second;
}

std::vector<const Job*> JobQueue::all() const {
  std::vector<const Job*> out;
  out.reserve(jobs_.size());
  for (const auto& [id, j] : order_)
    if (j != nullptr) out.push_back(j);
  return out;
}

void JobQueue::push_dyn_request(DynRequest req) {
  DBS_REQUIRE(dyn_request_of(req.job) == nullptr,
              "job already has a pending dynamic request");
  dyn_fifo_.push_back(req);
}

bool JobQueue::remove_dyn_request(RequestId id) {
  auto it = std::find_if(dyn_fifo_.begin(), dyn_fifo_.end(),
                         [&](const DynRequest& r) { return r.id == id; });
  if (it == dyn_fifo_.end()) return false;
  dyn_fifo_.erase(it);
  return true;
}

const DynRequest* JobQueue::dyn_request_of(JobId job) const {
  for (const auto& r : dyn_fifo_)
    if (r.job == job) return &r;
  return nullptr;
}

}  // namespace dbs::rms
