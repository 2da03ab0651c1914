#ifndef EDGERT_SERVE_QUEUE_HH
#define EDGERT_SERVE_QUEUE_HH

/**
 * @file
 * Per-model request queue and its batching policy.
 *
 * The queue holds admitted-but-undispatched request ids in arrival
 * order and tracks an EWMA of the arrival rate, which SLO admission
 * (serve::admitArrival) uses to estimate how long a fresh request
 * will wait for its batch to fill.
 */

#include <cstdint>
#include <vector>

#include "common/arena.hh"

namespace edgert::serve {

/** Batching policy of one model's queue. */
struct BatchPolicy
{
    int max_batch = 8;          //!< coalesce at most this many
    double timeout_us = 2000.0; //!< max wait for a fuller batch
};

/**
 * What the batch-dispatch loop (serve::dispatchBatches) needs of a
 * queue: its size, its oldest entry and cutting the oldest entries
 * into a batch. It also remembers the front entry its armed batch
 * timeout belongs to, so the timeout is re-armed only when the
 * front changes.
 */
class BatchQueue
{
  public:
    virtual std::size_t size() const = 0;
    bool empty() const { return size() == 0; }

    /** Time the oldest entry joined (queue must be non-empty). */
    virtual double oldestSeconds() const = 0;

    /** Id of the oldest entry (queue must be non-empty). */
    virtual std::int64_t frontId() const = 0;

    /** Dequeue the oldest `n` entries (n <= size()). */
    virtual std::vector<std::int64_t> cut(int n) = 0;

    /** Front id the armed batch timeout belongs to (-1 = none). */
    std::int64_t timeout_armed = -1;

  protected:
    ~BatchQueue() = default; //!< not owned through the interface
};

/** Arrival-ordered queue of admitted request ids for one model. */
class RequestQueue final : public BatchQueue
{
  public:
    /** @param rate_tau_s EWMA time constant of the arrival-rate
     *         estimate. */
    explicit RequestQueue(double rate_tau_s = 0.5)
        : rate_tau_s_(rate_tau_s)
    {}

    /** Record an arrival (admitted or not) in the rate estimate. */
    void observeArrival(double now_s);

    /** Enqueue an admitted request. */
    void push(std::int64_t id, double arrival_s);

    /** Dequeue the oldest `n` requests (n <= size()). */
    std::vector<std::int64_t> cut(int n) override;

    std::size_t size() const override { return pending_.size(); }

    /** Arrival time of the oldest pending request. */
    double oldestSeconds() const override;

    /** Id of the oldest pending request (queue must be non-empty). */
    std::int64_t frontId() const override
    {
        return pending_.front().id;
    }

    /** EWMA arrival-rate estimate in requests/second. */
    double rateHz() const { return rate_hz_; }

  private:
    struct Pending
    {
        std::int64_t id;
        double arrival_s;
    };

    RingBuffer<Pending> pending_;
    double rate_tau_s_;
    double rate_hz_ = 0.0;
    double last_arrival_s_ = -1.0;
};

} // namespace edgert::serve

#endif // EDGERT_SERVE_QUEUE_HH
