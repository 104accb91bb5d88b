#include "svc/ingest.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/assert.hpp"

namespace dbs::svc {

void IngestTotals::add(const IngestRecord& r) {
  ++records;
  if (r.kind != IngestKind::Submit) return;
  ++submits;
  submit_cores +=
      static_cast<std::uint64_t>(std::max<CoreCount>(r.spec.cores, 1));
}

std::uint64_t IngestQueue::push(IngestRecord&& r) {
  DBS_REQUIRE(!closed(), "push after close");
  const std::lock_guard<std::mutex> lock(mutex_);
  // The ticket is taken only once the append succeeded, so a throwing
  // push leaves no gap in the sequence (nor an empty chunk). depth_ is
  // released after ticket_: a reader of depth() then pushed() never counts
  // a record whose ticket it does not see.
  const std::uint64_t seq = ticket_.load(std::memory_order_relaxed);
  r.seq = seq;
  if (chunks_.empty() || chunks_.back().size() == kIngestChunk) {
    IngestChunk chunk;
    chunk.push_back(std::move(r));
    chunks_.push_back(std::move(chunk));
  } else {
    chunks_.back().push_back(std::move(r));
  }
  ticket_.store(seq + 1, std::memory_order_relaxed);
  depth_.store(depth_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
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

std::size_t IngestQueue::drain(std::vector<IngestChunk>& out) {
  const std::size_t base = out.size();
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    n = depth_.load(std::memory_order_relaxed);
    if (n == 0) return 0;
    // The records change hands without a move: only the chunks' handles
    // do.
    out.insert(out.end(), std::make_move_iterator(chunks_.begin()),
               std::make_move_iterator(chunks_.end()));
    chunks_.clear();
    depth_.store(0, std::memory_order_relaxed);
  }
  // Tickets are drawn in append order, so a batch whose ends are the next
  // ticket and n - 1 past it holds exactly the tickets in between.
  DBS_ASSERT(out[base].front().seq == next_seq_ &&
                 out.back().back().seq == next_seq_ + n - 1,
             "drained batch does not continue the ticket sequence");
  next_seq_ += n;
  return n;
}

}  // namespace dbs::svc
