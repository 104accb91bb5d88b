#include "svc/ingest.hpp"

#include <iterator>
#include <utility>

#include "common/assert.hpp"

namespace dbs::svc {

std::uint64_t IngestQueue::push(IngestRecord&& r) {
  DBS_REQUIRE(!closed(), "push after close");
  const std::lock_guard<std::mutex> lock(mutex_);
  // The ticket is taken only once the append succeeded, so a throwing
  // push_back leaves no gap in the sequence. depth_ is released after
  // ticket_: a reader of depth() then pushed() never counts a record
  // whose ticket it does not see.
  const std::uint64_t seq = ticket_.load(std::memory_order_relaxed);
  r.seq = seq;
  items_.push_back(std::move(r));
  ticket_.store(seq + 1, std::memory_order_relaxed);
  depth_.store(items_.size(), std::memory_order_release);
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
  const std::size_t base = out.size();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (base == 0) {
      // The records change hands without a move, and the producers append
      // into the caller's spare capacity.
      out.swap(items_);
    } else {
      out.insert(out.end(), std::make_move_iterator(items_.begin()),
                 std::make_move_iterator(items_.end()));
      items_.clear();
    }
    depth_.store(0, std::memory_order_relaxed);
  }
  const std::size_t n = out.size() - base;
  if (n == 0) return 0;
  // Tickets are drawn in append order, so a batch whose ends are the next
  // ticket and n - 1 past it holds exactly the tickets in between.
  DBS_ASSERT(out[base].seq == next_seq_ && out.back().seq == next_seq_ + n - 1,
             "drained batch does not continue the ticket sequence");
  next_seq_ += n;
  return n;
}

}  // namespace dbs::svc
