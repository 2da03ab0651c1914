/**
 * @file
 * Tests for the EdgeServe request queue, the dynamic batcher's
 * dispatch decision, and the SLO-admission sojourn predictor.
 */

#include <gtest/gtest.h>

#include "serve/batcher.hh"
#include "serve/queue.hh"

namespace edgert::serve {
namespace {

/** One-instance backend with a {1,2,4,8} ladder. `base_s` is the
 *  batch-1 service; each ladder step costs 1.5x the previous. */
BackendView
ladderBackend(double free_s, double base_s)
{
    BackendView view;
    view.ladder = {1, 2, 4, 8};
    BackendView::InstanceView inst;
    inst.free_s = free_s;
    double s = base_s;
    for (std::size_t i = 0; i < view.ladder.size(); i++) {
        inst.service_s.push_back(s);
        s *= 1.5;
    }
    view.instances.push_back(inst);
    return view;
}

TEST(RequestQueue, FifoCutOrder)
{
    RequestQueue q;
    q.push(10, 0.1);
    q.push(11, 0.2);
    q.push(12, 0.3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.frontId(), 10);
    EXPECT_DOUBLE_EQ(q.oldestSeconds(), 0.1);
    auto ids = q.cut(2);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 10);
    EXPECT_EQ(ids[1], 11);
    EXPECT_EQ(q.frontId(), 12);
    EXPECT_FALSE(q.empty());
}

TEST(RequestQueue, EwmaRateConvergesToArrivalRate)
{
    RequestQueue q;
    // 200 Hz arrivals for 8 simulated seconds — 16 EWMA time
    // constants, so the estimate has fully converged.
    for (int i = 0; i < 1600; i++)
        q.observeArrival(i * 0.005);
    EXPECT_NEAR(q.rateHz(), 200.0, 1.0);
}

TEST(Batcher, DispatchesFullBatchImmediately)
{
    DynamicBatcher b({4, 5000.0});
    EXPECT_EQ(b.decide(4, 1.0, 1.0), 4);
    EXPECT_EQ(b.decide(9, 1.0, 1.0), 4);
}

TEST(Batcher, WaitsForTimeoutThenFlushesPartial)
{
    DynamicBatcher b({8, 2000.0});
    // Oldest queued at t=1.0 s; timeout fires at 1.002 s.
    EXPECT_EQ(b.decide(3, 1.0, 1.0010), 0);
    EXPECT_EQ(b.decide(3, 1.0, 1.0020), 3);
    EXPECT_EQ(b.decide(3, 1.0, 1.5), 3);
}

TEST(Sojourn, EmptyBackendIsInfeasible)
{
    BackendView view;
    view.ladder = {1};
    BatchPolicy policy;
    EXPECT_GT(predictSojournSeconds(view, policy, 0, 0.0, 100.0),
              1e6);
}

TEST(Sojourn, IdleBackendPredictsSmallBatchService)
{
    // Idle instance, empty queue, slow arrivals: the estimate is
    // near fill-wait + batch-1 service, nowhere near the batch-8
    // worst case (which would make admission shed light traffic).
    BackendView view = ladderBackend(0.0, 0.010);
    BatchPolicy policy{8, 2000.0};
    double est = predictSojournSeconds(view, policy, 0, 0.0, 10.0);
    EXPECT_GE(est, 0.010);
    EXPECT_LT(est, 0.010 * 1.5 + 0.0021); // < batch-2 svc + timeout
}

TEST(Sojourn, GrowsWithBacklog)
{
    BackendView view = ladderBackend(0.0, 0.010);
    BatchPolicy policy{8, 2000.0};
    double prev = -1.0;
    for (int backlog : {0, 8, 16, 32}) {
        double est =
            predictSojournSeconds(view, policy, backlog, 0.0, 100.0);
        EXPECT_GT(est, prev);
        prev = est;
    }
    // 32 queued ahead = 4 full batch-8 dispatches before ours.
    double svc8 = 0.010 * 1.5 * 1.5 * 1.5;
    EXPECT_GE(prev, 4 * svc8);
}

TEST(Sojourn, BusyInstanceDelaysCompletion)
{
    BatchPolicy policy{8, 2000.0};
    double idle =
        predictSojournSeconds(ladderBackend(0.0, 0.010), policy, 0,
                              0.0, 100.0);
    double busy =
        predictSojournSeconds(ladderBackend(0.5, 0.010), policy, 0,
                              0.0, 100.0);
    EXPECT_NEAR(busy - idle, 0.5, 1e-9);
}

TEST(Sojourn, MoreInstancesDrainBacklogFaster)
{
    BatchPolicy policy{8, 2000.0};
    BackendView one = ladderBackend(0.0, 0.010);
    BackendView two = one;
    two.instances.push_back(two.instances.front());
    double est1 = predictSojournSeconds(one, policy, 32, 0.0, 100.0);
    double est2 = predictSojournSeconds(two, policy, 32, 0.0, 100.0);
    EXPECT_LT(est2, est1);
}

} // namespace
} // namespace edgert::serve
