/**
 * @file
 * Tests for the engine-instance pool (RAM-bounded placement, the
 * per-(model, device) index, the predicted-free pick), the batch
 * dispatch loop that serve, fleet and stream share, and the arrival
 * path (sojourn predictor and SLO admission) of serve and fleet.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gpusim/device.hh"
#include "serve/batcher.hh"
#include "serve/queue.hh"
#include "serve/scheduler.hh"
#include "serve/serving.hh"

namespace edgert::serve {
namespace {

constexpr std::int64_t kGiB = 1024LL * 1024 * 1024;

/** One NX (8 GB) and one AGX (32 GB). */
std::vector<gpusim::DeviceSpec>
nxAndAgx()
{
    return {gpusim::DeviceSpec::xavierNX(),
            gpusim::DeviceSpec::xavierAGX()};
}

TEST(InstancePool, BudgetIsTheRamFractionOfGiB)
{
    InstancePool pool(nxAndAgx(), 0.25);
    EXPECT_EQ(pool.ramBudgetBytes(0), 2 * kGiB);
    EXPECT_EQ(pool.ramBudgetBytes(1), 8 * kGiB);
    EXPECT_EQ(pool.ramUsedBytes(0), 0);
}

TEST(InstancePool, PlacementStopsAtFloorOfBudgetOverFootprint)
{
    InstancePool pool(nxAndAgx(), 0.25);
    // An exact fit places budget / footprint instances.
    EXPECT_EQ(pool.place(0, 0, kGiB / 2, 10), 4);
    EXPECT_EQ(pool.ramUsedBytes(0), 2 * kGiB);
    // The device is full: nothing more fits, for any model.
    EXPECT_EQ(pool.place(1, 0, 1, 1), 0);
    // `want` caps placement below the budget.
    EXPECT_EQ(pool.place(0, 1, kGiB, 3), 3);
    EXPECT_EQ(pool.ramUsedBytes(1), 3 * kGiB);
}

TEST(InstancePool, BudgetBetweenDecimalAndBinaryGigabytesCounts)
{
    // 0.25 x 8 GB is 2.0e9 bytes in decimal units but 2^31 bytes in
    // GiB: a 700 MB context fits twice in the first, three times in
    // the second. The pool budgets in GiB.
    InstancePool pool(nxAndAgx(), 0.25);
    const std::int64_t fp = 700'000'000;
    EXPECT_EQ(pool.place(0, 0, fp, 16), 3);
    EXPECT_EQ(pool.ramUsedBytes(0), 3 * fp);
    EXPECT_GT(pool.ramBudgetBytes(0) - pool.ramUsedBytes(0), 0);
    EXPECT_LT(pool.ramBudgetBytes(0) - pool.ramUsedBytes(0), fp);
}

TEST(InstancePool, PlacementOrderSetsIndicesAndStreamOrdinals)
{
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, 2); // 0, 1
    pool.place(0, 1, kGiB, 1); // 2
    pool.place(1, 0, kGiB, 2); // 3, 4
    pool.place(1, 1, kGiB, 1); // 5

    EXPECT_EQ(pool.instancesOf(0), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(pool.instancesOf(1), (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(pool.instancesOf(0, 0), (std::vector<int>{0, 1}));
    EXPECT_EQ(pool.instancesOf(0, 1), (std::vector<int>{2}));
    EXPECT_EQ(pool.instancesOf(1, 0), (std::vector<int>{3, 4}));
    EXPECT_EQ(pool.instancesOf(1, 1), (std::vector<int>{5}));
    EXPECT_TRUE(pool.instancesOf(7).empty());
    EXPECT_TRUE(pool.instancesOf(7, 0).empty());

    // Streams count per device in placement order, across models.
    std::vector<int> streams;
    for (const Instance &inst : pool.instances())
        streams.push_back(inst.stream);
    EXPECT_EQ(streams, (std::vector<int>{0, 1, 0, 2, 3, 1}));
    EXPECT_EQ(pool.instances()[4].model, 1);
    EXPECT_EQ(pool.instances()[4].device, 0);
}

TEST(InstancePool, PerDeviceLookupSeesOnlyThatDevice)
{
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, 1); // 0
    pool.place(0, 1, kGiB, 1); // 1
    auto &insts = pool.instances();
    insts[0].predicted_free_s = 5.0; // busy
    insts[1].predicted_free_s = 0.0; // free, but on the other device
    EXPECT_EQ(pool.freeInstance(pool.instancesOf(0, 0), 1.0), -1);
    EXPECT_EQ(pool.freeInstance(pool.instancesOf(0), 1.0), 1);
}

TEST(InstancePool, FreeInstanceAllowsAOnePicosecondSlack)
{
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, 1);
    Instance &inst = pool.instances()[0];
    inst.predicted_free_s = 1.0 + 5e-13; // within the 1e-12 s slack
    EXPECT_EQ(pool.freeInstance(pool.instancesOf(0), 1.0), 0);
    inst.predicted_free_s = 1.0 + 1e-11; // beyond it
    EXPECT_EQ(pool.freeInstance(pool.instancesOf(0), 1.0), -1);
}

TEST(InstancePool, FreeInstancePicksEarliestThenLowestIndex)
{
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, 3);
    auto &insts = pool.instances();
    const auto &all = pool.instancesOf(0);

    insts[0].predicted_free_s = 0.5;
    insts[1].predicted_free_s = 0.2;
    insts[2].predicted_free_s = 0.2;
    EXPECT_EQ(pool.freeInstance(all, 1.0), 1); // earliest, tie → 1

    insts[1].predicted_free_s = 0.7;
    EXPECT_EQ(pool.freeInstance(all, 1.0), 2);

    for (Instance &inst : insts)
        inst.predicted_free_s = 2.0;
    EXPECT_EQ(pool.freeInstance(all, 1.0), -1);
    EXPECT_EQ(pool.freeInstance({}, 1.0), -1);
}

/** A version whose two targets (NX, AGX) share one ladder with
 *  made-up service times (the dispatch loop and the predictor read
 *  only batches and service_s). */
EngineVersion
ladderVersion(std::vector<int> batches = {1, 2, 4},
              std::vector<double> service_s = {0.001, 0.0015, 0.0025})
{
    EngineVersion v;
    EngineSet set;
    set.batches = std::move(batches);
    set.service_s = std::move(service_s);
    v.sets = {set, set};
    return v;
}

TEST(DispatchBatches, CutsFullBatchesThenArmsTheTimeoutOnce)
{
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, 1);
    const EngineVersion ver = ladderVersion();
    RequestQueue q;
    for (int i = 0; i < 5; i++)
        q.push(i, 0.001 * i);
    DynamicBatcher batcher({4, 1000.0});
    ControlQueue evq;
    std::vector<int> batches;
    const DispatchHook hook = [&](const Instance &inst,
                                  const PlannedDispatch &pd) {
        EXPECT_EQ(inst.device, 0);
        batches.push_back(pd.batch);
    };

    // At t = 5 ms one instance is free: a full batch of 4 goes out on
    // the batch-4 engine; the fifth request waits with its timeout
    // (arrival 4 ms + 1 ms) armed.
    dispatchBatches(evq, pool, pool.instancesOf(0), q, batcher, 9, ver,
                    3, kInstanceDevice, 0.005, hook);
    EXPECT_EQ(batches, (std::vector<int>{4}));
    const Instance &inst = pool.instances()[0];
    ASSERT_EQ(inst.plan.size(), 1u);
    const PlannedDispatch &pd = inst.plan[0];
    EXPECT_EQ(pd.t_s, 0.005);
    EXPECT_EQ(pd.engine_idx, 2);
    EXPECT_EQ(pd.version, 3);
    EXPECT_EQ(pd.request_ids, (std::vector<std::int64_t>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(inst.predicted_free_s, 0.0075);
    EXPECT_EQ(q.size(), 1u);

    // Same front: no second timeout event.
    dispatchBatches(evq, pool, pool.instancesOf(0), q, batcher, 9, ver,
                    3, kInstanceDevice, 0.005, hook);
    ControlEvent timeout_ev = evq.pop();
    EXPECT_EQ(timeout_ev.kind, kBatchTimeout);
    EXPECT_DOUBLE_EQ(timeout_ev.t, 0.005);
    EXPECT_EQ(timeout_ev.target, 9);
    ControlEvent free_ev = evq.pop();
    EXPECT_EQ(free_ev.kind, kInstanceFree);
    EXPECT_DOUBLE_EQ(free_ev.t, 0.0075);
    EXPECT_EQ(free_ev.target, 0);
    EXPECT_TRUE(evq.empty());

    // Once the instance frees up, the timed-out partial batch goes
    // on the batch-1 engine and the queue needs no timeout.
    dispatchBatches(evq, pool, pool.instancesOf(0), q, batcher, 9, ver,
                    3, kInstanceDevice, 0.0075, hook);
    EXPECT_EQ(batches, (std::vector<int>{4, 1}));
    EXPECT_EQ(inst.plan.back().engine_idx, 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(evq.pop().kind, kInstanceFree);
    EXPECT_TRUE(evq.empty());
}

/** A 1/2/4/8 ladder whose batch-1 rung costs `base_s` and each
 *  further rung 1.5x the previous. */
std::vector<double>
geometricService(double base_s)
{
    std::vector<double> out;
    for (double s = base_s; out.size() < 4; s *= 1.5)
        out.push_back(s);
    return out;
}

/** Both targets on a geometric 10 ms ladder. */
EngineVersion
sojournVersion()
{
    return ladderVersion({1, 2, 4, 8}, geometricService(0.010));
}

/** `n` NX instances of model 0, each predicted free at `free_s`. */
InstancePool
nxPool(int n, double free_s)
{
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, n);
    for (Instance &inst : pool.instances())
        inst.predicted_free_s = free_s;
    return pool;
}

/** Model 0's predicted sojourn at t = 0 under a {8, 2 ms} policy. */
double
sojourn(const InstancePool &pool, const EngineVersion &ver,
        int queued_ahead, double rate_hz, int target = kInstanceDevice)
{
    return predictSojournSeconds(pool, pool.instancesOf(0), ver, target,
                                 BatchPolicy{8, 2000.0}, queued_ahead,
                                 0.0, rate_hz);
}

TEST(Sojourn, EmptyBackendIsInfeasible)
{
    InstancePool pool(nxAndAgx(), 0.5);
    EXPECT_GT(sojourn(pool, sojournVersion(), 0, 100.0), 1e6);
}

TEST(Sojourn, IdleBackendPredictsSmallBatchService)
{
    // Idle instance, empty queue, slow arrivals: the estimate is
    // near fill-wait + batch-1 service, nowhere near the batch-8
    // worst case (which would make admission shed light traffic).
    double est = sojourn(nxPool(1, 0.0), sojournVersion(), 0, 10.0);
    EXPECT_GE(est, 0.010);
    EXPECT_LT(est, 0.010 * 1.5 + 0.0021); // < batch-2 svc + timeout
}

TEST(Sojourn, GrowsWithBacklog)
{
    const InstancePool pool = nxPool(1, 0.0);
    double prev = -1.0;
    for (int backlog : {0, 8, 16, 32}) {
        double est = sojourn(pool, sojournVersion(), backlog, 100.0);
        EXPECT_GT(est, prev);
        prev = est;
    }
    // 32 queued ahead = 4 full batch-8 dispatches before ours.
    double svc8 = 0.010 * 1.5 * 1.5 * 1.5;
    EXPECT_GE(prev, 4 * svc8);
}

TEST(Sojourn, BusyInstanceDelaysCompletion)
{
    double idle = sojourn(nxPool(1, 0.0), sojournVersion(), 0, 100.0);
    double busy = sojourn(nxPool(1, 0.5), sojournVersion(), 0, 100.0);
    EXPECT_NEAR(busy - idle, 0.5, 1e-9);
}

TEST(Sojourn, MoreInstancesDrainBacklogFaster)
{
    double est1 = sojourn(nxPool(1, 0.0), sojournVersion(), 32, 100.0);
    double est2 = sojourn(nxPool(2, 0.0), sojournVersion(), 32, 100.0);
    EXPECT_LT(est2, est1);
}

TEST(Sojourn, InstanceDeviceReadsEachInstancesOwnSet)
{
    // One idle NX instance (10 ms rungs) and one idle AGX instance
    // (4 ms rungs), 8 queued ahead, no arrivals: the backlog's full
    // batch ties at t = 0 and goes to the first candidate (NX); the
    // request's own batch of 1 then runs on the AGX at its batch-1
    // service, after the whole 2 ms batching timeout.
    InstancePool pool(nxAndAgx(), 0.5);
    pool.place(0, 0, kGiB, 1);
    pool.place(0, 1, kGiB, 1);
    EngineVersion ver;
    ver.sets = ladderVersion({1, 2, 4, 8}, geometricService(0.010)).sets;
    ver.sets[1].service_s = geometricService(0.004);
    EXPECT_DOUBLE_EQ(sojourn(pool, ver, 8, 0.0), 0.004 + 0.002);
    // A fixed target reads that one set for every instance.
    EXPECT_DOUBLE_EQ(sojourn(pool, ver, 8, 0.0, 0), 0.010 + 0.002);
    EXPECT_DOUBLE_EQ(sojourn(pool, ver, 8, 0.0, 1), 0.004 + 0.002);
}

/** Request `id` of model 0 with a 50 ms SLO. */
Request
request(std::int64_t id)
{
    Request r;
    r.id = id;
    r.slo_ms = 50.0;
    return r;
}

TEST(AdmitArrival, NoCandidateShedsEvenWithAdmissionOffAndCountsRate)
{
    InstancePool pool(nxAndAgx(), 0.5);
    RequestQueue q;
    const EngineVersion ver = sojournVersion();
    for (int i = 0; i < 2; i++) {
        Request r = request(i);
        EXPECT_FALSE(admitArrival(r, 0.01 * i, q, false, pool,
                                  pool.instancesOf(0), ver,
                                  kInstanceDevice, BatchPolicy{}));
        EXPECT_EQ(r.outcome, Outcome::kShed);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(q.rateHz(), 0.0);
}

TEST(AdmitArrival, OverSloPredictionSheds)
{
    // The only instance is busy for 0.5 s: far past a 50 ms SLO.
    const InstancePool pool = nxPool(1, 0.5);
    const EngineVersion ver = sojournVersion();
    RequestQueue q;
    Request r = request(7);
    EXPECT_FALSE(admitArrival(r, 0.0, q, true, pool, pool.instancesOf(0),
                              ver, kInstanceDevice, BatchPolicy{}));
    EXPECT_EQ(r.outcome, Outcome::kShed);
    EXPECT_TRUE(q.empty());

    // With admission off the same request queues.
    Request late = request(8);
    EXPECT_TRUE(admitArrival(late, 0.0, q, false, pool,
                             pool.instancesOf(0), ver, kInstanceDevice,
                             BatchPolicy{}));
    EXPECT_EQ(q.size(), 1u);
}

TEST(AdmitArrival, AdmittedRequestIsPushedAtArrivalTime)
{
    const InstancePool pool = nxPool(1, 0.0);
    const EngineVersion ver = sojournVersion();
    RequestQueue q;
    Request r = request(3);
    EXPECT_TRUE(admitArrival(r, 0.25, q, true, pool, pool.instancesOf(0),
                             ver, kInstanceDevice, BatchPolicy{}));
    EXPECT_EQ(r.outcome, Outcome::kPending);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.frontId(), 3);
    EXPECT_DOUBLE_EQ(q.oldestSeconds(), 0.25);
}

} // namespace
} // namespace edgert::serve
