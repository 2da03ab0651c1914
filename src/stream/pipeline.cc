#include "stream/pipeline.hh"

#include <algorithm>

#include "common/logging.hh"

namespace edgert::stream {

BackpressurePolicy
parseBackpressurePolicy(const std::string &s)
{
    if (s == "drop_oldest")
        return BackpressurePolicy::kDropOldest;
    if (s == "skip_to_latest")
        return BackpressurePolicy::kSkipToLatest;
    if (s == "block")
        return BackpressurePolicy::kBlock;
    fatal("unknown backpressure policy '", s,
          "' (expected drop_oldest|skip_to_latest|block)");
}

std::string
backpressurePolicyName(BackpressurePolicy policy)
{
    switch (policy) {
      case BackpressurePolicy::kDropOldest: return "drop_oldest";
      case BackpressurePolicy::kSkipToLatest:
          return "skip_to_latest";
      case BackpressurePolicy::kBlock: return "block";
    }
    return "unknown";
}

StreamQueue::StreamQueue(int n_streams)
    : per_stream_(static_cast<std::size_t>(n_streams)),
      live_(static_cast<std::size_t>(n_streams), 0)
{
    if (n_streams <= 0)
        fatal("StreamQueue needs at least one stream (got ",
              n_streams, ")");
}

std::vector<std::int64_t>
StreamQueue::push(std::int64_t id, int stream, double ready_s,
                  BackpressurePolicy policy, int frame_budget)
{
    auto si = static_cast<std::size_t>(stream);
    std::vector<std::int64_t> evicted;
    auto &mine = per_stream_[si];

    auto evictOldest = [&]() {
        while (!mine.empty()) {
            std::int32_t idx = mine.front();
            mine.pop_front();
            Entry &e = entries_[static_cast<std::size_t>(idx)];
            if (e.gone)
                continue; // already cut; lazy tombstone
            e.gone = true;
            live_[si]--;
            live_total_--;
            evicted.push_back(e.id);
            return true;
        }
        return false;
    };

    switch (policy) {
      case BackpressurePolicy::kDropOldest:
          while (live_[si] >= std::max(1, frame_budget))
              if (!evictOldest())
                  break;
          break;
      case BackpressurePolicy::kSkipToLatest:
          while (live_[si] > 0)
              if (!evictOldest())
                  break;
          break;
      case BackpressurePolicy::kBlock: break;
    }

    auto idx = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(Entry{id, stream, ready_s, false});
    fifo_.push_back(idx);
    mine.push_back(idx);
    live_[si]++;
    live_total_++;
    return evicted;
}

void
StreamQueue::compactFront()
{
    while (!fifo_.empty() &&
           entries_[static_cast<std::size_t>(fifo_.front())].gone)
        fifo_.pop_front();
}

std::vector<std::int64_t>
StreamQueue::cut(int n)
{
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(n));
    while (n > 0) {
        compactFront();
        if (fifo_.empty())
            fatal("StreamQueue::cut past end (", n,
                  " frames short)");
        Entry &e =
            entries_[static_cast<std::size_t>(fifo_.front())];
        fifo_.pop_front();
        e.gone = true;
        live_[static_cast<std::size_t>(e.stream)]--;
        live_total_--;
        out.push_back(e.id);
        n--;
    }
    return out;
}

double
StreamQueue::oldestSeconds() const
{
    for (std::int32_t idx : fifo_) {
        const Entry &e = entries_[static_cast<std::size_t>(idx)];
        if (!e.gone)
            return e.ready_s;
    }
    fatal("StreamQueue::oldestSeconds on empty queue");
}

std::int64_t
StreamQueue::frontId() const
{
    for (std::int32_t idx : fifo_) {
        const Entry &e = entries_[static_cast<std::size_t>(idx)];
        if (!e.gone)
            return e.id;
    }
    fatal("StreamQueue::frontId on empty queue");
}

int
StreamQueue::queuedOf(int stream) const
{
    return live_[static_cast<std::size_t>(stream)];
}

std::vector<std::int64_t>
StreamQueue::drain()
{
    std::vector<std::int64_t> out;
    out.reserve(live_total_);
    for (std::int32_t idx : fifo_) {
        Entry &e = entries_[static_cast<std::size_t>(idx)];
        if (e.gone)
            continue;
        e.gone = true;
        live_[static_cast<std::size_t>(e.stream)]--;
        out.push_back(e.id);
    }
    fifo_.clear();
    live_total_ = 0;
    return out;
}

} // namespace edgert::stream
