#include "serve/queue.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace edgert::serve {

double
BackendView::serviceFor(const InstanceView &inst, int batch) const
{
    for (std::size_t i = 0; i < ladder.size(); i++)
        if (ladder[i] >= batch)
            return inst.service_s[i];
    return inst.service_s.empty() ? 1e9 : inst.service_s.back();
}

double
predictSojournSeconds(const BackendView &backend,
                      const BatchPolicy &policy, int queued_ahead,
                      double now_s, double arrival_rate_hz)
{
    if (backend.instances.empty())
        return 1e9; // nothing can serve this model

    // Expected wait for this request's own batch to fill: the slots
    // left after the backlog ahead of it is packed into full
    // batches, divided by the arrival rate, capped by the batcher's
    // timeout.
    int max_batch = std::max(1, policy.max_batch);
    double timeout_s = policy.timeout_us * 1e-6;
    int slots_open =
        max_batch - 1 - (queued_ahead % max_batch);
    double fill_s =
        arrival_rate_hz > 1e-9
            ? static_cast<double>(slots_open) / arrival_rate_hz
            : timeout_s;
    fill_s = std::min(fill_s, timeout_s);

    // The request's own dispatch: its backlog remainder plus the
    // arrivals expected while the batcher coalesces — not a full
    // max_batch, or a lightly loaded server would predict the
    // worst-case batch service for every request and shed traffic
    // it could easily carry.
    int growth = arrival_rate_hz > 0.0
                     ? static_cast<int>(arrival_rate_hz * fill_s)
                     : 0;
    int own_batch = std::min(max_batch,
                             queued_ahead % max_batch + 1 + growth);

    // Greedily assign the backlog's full batches, then the
    // request's own batch, onto earliest-predicted-free instances.
    std::vector<double> free_s;
    free_s.reserve(backend.instances.size());
    for (const auto &inst : backend.instances)
        free_s.push_back(std::max(inst.free_s, now_s));

    auto earliest = [&]() {
        return static_cast<std::size_t>(
            std::min_element(free_s.begin(), free_s.end()) -
            free_s.begin());
    };
    int full_batches = queued_ahead / max_batch;
    for (int b = 0; b < full_batches; b++) {
        std::size_t idx = earliest();
        free_s[idx] += backend.serviceFor(backend.instances[idx],
                                          max_batch);
    }
    std::size_t idx = earliest();
    double done_s = free_s[idx] + backend.serviceFor(
                                      backend.instances[idx],
                                      own_batch);
    return std::max(0.0, done_s - now_s) + fill_s;
}

void
RequestQueue::observeArrival(double now_s)
{
    if (last_arrival_s_ >= 0.0) {
        double gap = std::max(now_s - last_arrival_s_, 1e-9);
        double inst = 1.0 / gap;
        double alpha = 1.0 - std::exp(-gap / rate_tau_s_);
        rate_hz_ += alpha * (inst - rate_hz_);
    }
    last_arrival_s_ = now_s;
}

void
RequestQueue::push(std::int64_t id, double arrival_s)
{
    pending_.push({id, arrival_s});
}

std::vector<std::int64_t>
RequestQueue::cut(int n)
{
    if (n <= 0 || static_cast<std::size_t>(n) > pending_.size())
        panic("RequestQueue::cut(", n, ") with ", pending_.size(),
              " pending");
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++) {
        out.push_back(pending_.front().id);
        pending_.pop();
    }
    return out;
}

double
RequestQueue::oldestSeconds() const
{
    if (pending_.empty())
        panic("oldestSeconds() on an empty queue");
    return pending_.front().arrival_s;
}

} // namespace edgert::serve
