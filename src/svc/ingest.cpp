#include "svc/ingest.hpp"

#include <utility>

#include "common/assert.hpp"

namespace dbs::svc {

IngestQueue::IngestQueue() {
  shards_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t IngestQueue::push(IngestRecord&& r) {
  DBS_REQUIRE(!closed(), "push after close");
  // The ticket is drawn before the shard lock so the total order exists
  // independently of lock acquisition order; the drain orders by it.
  const std::uint64_t seq = ticket_.fetch_add(1, std::memory_order_relaxed);
  r.seq = seq;
  Shard& shard = *shards_[seq % shards_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.items.push_back(std::move(r));
  }
  depth_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

std::uint64_t IngestQueue::submit(Time requested, rms::JobSpec spec,
                                  wl::Behavior behavior) {
  IngestRecord r;
  r.kind = IngestKind::Submit;
  r.requested = requested;
  r.spec = std::move(spec);
  r.behavior = behavior;
  return push(std::move(r));
}

std::uint64_t IngestQueue::cancel(Time requested, JobId job) {
  DBS_REQUIRE(job.valid(), "cancel needs a valid job id");
  IngestRecord r;
  r.kind = IngestKind::Cancel;
  r.requested = requested;
  r.job = job;
  return push(std::move(r));
}

std::size_t IngestQueue::drain(std::vector<IngestRecord>& out) {
  // Tickets are dense from next_seq_, so each swept record goes straight
  // to stash slot seq - next_seq_ instead of being sorted into place. The
  // tickets drawn so far need pushed() - next_seq_ slots; reserving them
  // up front spares the stash a doubling's slack.
  stash_.reserve(static_cast<std::size_t>(pushed() - next_seq_));
  for (auto& shard_ptr : shards_) {
    std::vector<IngestRecord> taken;
    {
      std::lock_guard<std::mutex> lock(shard_ptr->mutex);
      taken.swap(shard_ptr->items);
    }
    for (auto& r : taken) {
      DBS_ASSERT(r.seq >= next_seq_, "ticket released twice");
      const auto slot = static_cast<std::size_t>(r.seq - next_seq_);
      if (slot >= stash_.size()) stash_.resize(slot + 1);
      DBS_ASSERT(!stash_[slot].has_value(), "ticket drawn twice");
      stash_[slot] = std::move(r);
    }
  }
  // Release only the seq-contiguous prefix. A producer that drew ticket n
  // but lost the CPU before landing it in its shard must not be overtaken
  // by ticket n+1 from another shard: a drain that skipped n would hand
  // the service loop a reordered sequence, and the admission stamps (and
  // with them the whole schedule) would depend on that race. Records past
  // the gap wait in the stash; the straggler's push completes in bounded
  // time, so the next drain releases them.
  std::size_t k = 0;
  while (k < stash_.size() && stash_[k].has_value()) ++k;
  for (std::size_t i = 0; i < k; ++i) out.push_back(std::move(*stash_[i]));
  stash_.erase(stash_.begin(), stash_.begin() + static_cast<std::ptrdiff_t>(k));
  next_seq_ += k;
  if (k > 0) depth_.fetch_sub(k, std::memory_order_relaxed);
  return k;
}

}  // namespace dbs::svc
