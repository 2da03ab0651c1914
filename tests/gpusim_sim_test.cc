/**
 * @file
 * Discrete-event-simulator tests: stream FIFO semantics, cross-
 * stream concurrency, copy-engine serialization, events, host
 * delays, utilization accounting and resource-conservation
 * properties.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "gpusim/timing.hh"

namespace edgert::gpusim {
namespace {

KernelDesc
kernel(std::int64_t grid, std::int64_t flops,
       std::int64_t bytes = 0)
{
    KernelDesc k;
    k.name = "k" + std::to_string(grid) + "_" + std::to_string(flops);
    k.grid_blocks = grid;
    k.max_blocks_per_sm = 1;
    k.flops = flops;
    k.dram_bytes = bytes;
    k.tensor_core = true;
    k.efficiency = 0.5;
    k.tile_kb = 1.0;
    return k;
}

TEST(GpuSim, SingleKernelMatchesAnalyticTime)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    GpuSim sim(nx);
    KernelDesc k = kernel(60, 1'000'000'000);
    sim.launchKernel(0, k);
    sim.run();
    ASSERT_EQ(sim.trace().size(), 1u);
    double expect = soloKernelSeconds(nx, k) +
                    nx.kernel_launch_us * 1e-6;
    EXPECT_NEAR(sim.nowSeconds(), expect, 1e-12);
}

TEST(GpuSim, StreamIsFifo)
{
    GpuSim sim(DeviceSpec::xavierNX());
    sim.launchKernel(0, kernel(6, 100'000'000));
    sim.launchKernel(0, kernel(6, 200'000'000));
    sim.run();
    ASSERT_EQ(sim.trace().size(), 2u);
    EXPECT_LE(sim.trace()[0].end_s, sim.trace()[1].start_s + 1e-12);
}

TEST(GpuSim, SmallKernelsOverlapAcrossStreams)
{
    // Two 3-block kernels fit side by side on 6 SMs: the makespan
    // is ~one kernel, not two.
    DeviceSpec nx = DeviceSpec::xavierNX();
    GpuSim solo(nx);
    solo.launchKernel(0, kernel(3, 300'000'000));
    solo.run();
    double t_one = solo.nowSeconds();

    GpuSim sim(nx);
    int s2 = sim.createStream();
    sim.launchKernel(0, kernel(3, 300'000'000));
    sim.launchKernel(s2, kernel(3, 300'000'000));
    sim.run();
    EXPECT_LT(sim.nowSeconds(), 1.5 * t_one);
}

TEST(GpuSim, BigKernelsShareFairly)
{
    // Two machine-filling kernels from different streams finish in
    // about the serial time (work conservation), not faster.
    DeviceSpec nx = DeviceSpec::xavierNX();
    KernelDesc k = kernel(600, 600'000'000);
    GpuSim solo(nx);
    solo.launchKernel(0, k);
    solo.run();
    double t_one = solo.nowSeconds();

    GpuSim sim(nx);
    int s2 = sim.createStream();
    sim.launchKernel(0, k);
    sim.launchKernel(s2, k);
    sim.run();
    EXPECT_NEAR(sim.nowSeconds(), 2.0 * t_one, 0.15 * t_one);
}

TEST(GpuSim, BandwidthIsConserved)
{
    // N memory-bound kernels across streams cannot move bytes
    // faster than the DRAM bandwidth.
    DeviceSpec nx = DeviceSpec::xavierNX();
    GpuSim sim(nx);
    const int n = 5;
    const std::int64_t bytes = 20'000'000;
    for (int i = 0; i < n; i++) {
        int s = i == 0 ? 0 : sim.createStream();
        sim.launchKernel(s, kernel(600, 1000, bytes));
    }
    sim.run();
    double min_time = static_cast<double>(n) * bytes /
                      nx.effDramBps();
    EXPECT_GE(sim.nowSeconds(), min_time * (1.0 - 1e-9));
}

TEST(GpuSim, CopyEngineSerializesAcrossStreams)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    GpuSim sim(nx);
    int s2 = sim.createStream();
    sim.memcpyH2D(0, 29'000'000, 1, "a"); // ~10ms each
    sim.memcpyH2D(s2, 29'000'000, 1, "b");
    sim.run();
    double one = memcpySeconds(nx, 29'000'000, 1);
    EXPECT_NEAR(sim.nowSeconds(), 2.0 * one, 1e-9);
}

TEST(GpuSim, CopyOverlapsKernels)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    GpuSim sim(nx);
    int s2 = sim.createStream();
    KernelDesc k = kernel(60, 2'000'000'000); // ~10ms
    sim.launchKernel(0, k);
    sim.memcpyH2D(s2, 29'000'000, 1, "w"); // ~10ms
    sim.run();
    double t_k = soloKernelSeconds(nx, k) + nx.kernel_launch_us * 1e-6;
    double t_c = memcpySeconds(nx, 29'000'000, 1);
    EXPECT_LT(sim.nowSeconds(), t_k + t_c - 1e-3);
}

TEST(GpuSim, EventsRecordCompletionTimes)
{
    GpuSim sim(DeviceSpec::xavierNX());
    EventId e0 = sim.recordEvent(0);
    sim.launchKernel(0, kernel(6, 500'000'000));
    EventId e1 = sim.recordEvent(0);
    sim.run();
    EXPECT_DOUBLE_EQ(sim.eventSeconds(e0), 0.0);
    EXPECT_NEAR(sim.eventSeconds(e1), sim.nowSeconds(), 1e-12);
}

TEST(GpuSim, PendingEventFatal)
{
    GpuSim sim(DeviceSpec::xavierNX());
    EventId e = sim.recordEvent(0);
    // Not run yet -> event pending... but markers complete on
    // admission, so use a kernel ahead of it.
    sim.launchKernel(0, kernel(6, 1'000'000));
    EventId e2 = sim.recordEvent(0);
    (void)e;
    EXPECT_THROW(sim.eventSeconds(e2), FatalError);
    sim.run();
    EXPECT_NO_THROW(sim.eventSeconds(e2));
}

TEST(GpuSim, HostDelayAdvancesTime)
{
    GpuSim sim(DeviceSpec::xavierNX());
    sim.hostDelay(0, 0.005);
    sim.launchKernel(0, kernel(6, 1'000'000));
    sim.run();
    EXPECT_GT(sim.nowSeconds(), 0.005);
}

TEST(GpuSim, RunUntilEventStopsEarly)
{
    GpuSim sim(DeviceSpec::xavierNX());
    sim.launchKernel(0, kernel(6, 500'000'000));
    EventId mid = sim.recordEvent(0);
    sim.launchKernel(0, kernel(6, 500'000'000));
    EventId end = sim.recordEvent(0);
    sim.runUntilEvent(mid);
    double t_mid = sim.nowSeconds();
    sim.runUntilEvent(end);
    EXPECT_GT(sim.nowSeconds(), t_mid);
}

TEST(GpuSim, ProfilingOverheadSlowsOps)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    GpuSim bare(nx);
    bare.launchKernel(0, kernel(6, 100'000'000));
    bare.run();

    GpuSim prof(nx);
    prof.setProfilingOverheadUs(50.0);
    prof.launchKernel(0, kernel(6, 100'000'000));
    prof.run();
    EXPECT_NEAR(prof.nowSeconds() - bare.nowSeconds(), 50e-6, 1e-9);
}

TEST(GpuSim, UtilizationWithinBounds)
{
    GpuSim sim(DeviceSpec::xavierNX());
    for (int i = 0; i < 4; i++)
        sim.launchKernel(0, kernel(60, 200'000'000, 1'000'000));
    sim.run();
    auto st = sim.stats();
    double util = st.smUtilizationPct(sim.spec().sm_count);
    EXPECT_GT(util, 10.0);
    EXPECT_LE(util, 100.0);
    EXPECT_LE(st.busyPct(), 100.0);
    EXPECT_GT(st.dram_bytes, 0.0);
}

TEST(GpuSim, ResetStatsOpensNewWindow)
{
    GpuSim sim(DeviceSpec::xavierNX());
    sim.launchKernel(0, kernel(60, 500'000'000));
    sim.run();
    sim.resetStats();
    auto st = sim.stats();
    EXPECT_DOUBLE_EQ(st.window_s, 0.0);
    EXPECT_DOUBLE_EQ(st.sm_busy_integral, 0.0);
}

TEST(GpuSim, JitterIsDeterministicPerSeed)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    auto run_once = [&](std::uint64_t seed) {
        GpuSim sim(nx);
        sim.setTimingJitter(0.05, seed);
        for (int i = 0; i < 5; i++)
            sim.launchKernel(0, kernel(60, 100'000'000));
        sim.run();
        return sim.nowSeconds();
    };
    EXPECT_DOUBLE_EQ(run_once(1), run_once(1));
    EXPECT_NE(run_once(1), run_once(2));
}

TEST(GpuSim, TraceRecordsAllOps)
{
    GpuSim sim(DeviceSpec::xavierNX());
    sim.memcpyH2D(0, 1000, 1, "in");
    sim.launchKernel(0, kernel(6, 1'000'000));
    sim.memcpyD2H(0, 1000, 1, "out");
    sim.run();
    ASSERT_EQ(sim.trace().size(), 3u);
    EXPECT_EQ(sim.trace()[0].kind, OpKind::kMemcpyH2D);
    EXPECT_EQ(sim.trace()[1].kind, OpKind::kKernel);
    EXPECT_EQ(sim.trace()[2].kind, OpKind::kMemcpyD2H);
    sim.clearTrace();
    EXPECT_TRUE(sim.trace().empty());
}

TEST(GpuSim, StreamPrioritiesSkewSharing)
{
    // Two machine-filling kernels; the high-priority stream's kernel
    // finishes first and far earlier than fair sharing would allow.
    DeviceSpec nx = DeviceSpec::xavierNX();
    KernelDesc k = kernel(600, 600'000'000);

    GpuSim sim(nx);
    int hi = sim.createStream(8.0);
    int lo = sim.createStream(1.0);
    sim.launchKernel(hi, k);
    sim.launchKernel(lo, k);
    EventId e_hi = sim.recordEvent(hi);
    EventId e_lo = sim.recordEvent(lo);
    sim.run();

    double t_hi = sim.eventSeconds(e_hi);
    double t_lo = sim.eventSeconds(e_lo);
    EXPECT_LT(t_hi, t_lo);
    // With an 8:1 weight the favored kernel runs near solo speed.
    GpuSim solo(nx);
    solo.launchKernel(0, k);
    solo.run();
    EXPECT_LT(t_hi, 1.35 * solo.nowSeconds());
    // Work conservation still holds overall.
    EXPECT_NEAR(t_lo, 2.0 * solo.nowSeconds(),
                0.2 * solo.nowSeconds());
}

TEST(GpuSim, InvalidPriorityFatal)
{
    GpuSim sim(DeviceSpec::xavierNX());
    EXPECT_THROW(sim.createStream(0.0), FatalError);
    EXPECT_THROW(sim.createStream(-1.0), FatalError);
}

TEST(GpuSim, WaitEventBlocksUntilProducerRetires)
{
    // Consumer stream waits on an event the producer stream records
    // after a long kernel: the consumer's kernel must start no
    // earlier than the producer finishes.
    GpuSim sim(DeviceSpec::xavierNX());
    int cons = sim.createStream();
    sim.launchKernel(0, kernel(600, 600'000'000));
    EventId produced = sim.recordEvent(0);
    sim.waitEvent(cons, produced);
    sim.launchKernel(cons, kernel(6, 1'000'000));
    EventId done = sim.recordEvent(cons);
    sim.run();
    // Without the wait the tiny consumer kernel would finish far
    // before the 600-block producer does.
    EXPECT_GE(sim.eventSeconds(done),
              sim.eventSeconds(produced) - 1e-12);
}

TEST(GpuSim, WaitEventAlreadySatisfiedCostsNothing)
{
    // Waiting on an event that already completed must not stall the
    // waiting stream: same makespan as not waiting at all.
    GpuSim bare(DeviceSpec::xavierNX());
    bare.launchKernel(0, kernel(6, 100'000'000));
    bare.run();

    GpuSim sim(DeviceSpec::xavierNX());
    int s2 = sim.createStream();
    EventId early = sim.recordEvent(0);
    sim.waitEvent(s2, early);
    sim.launchKernel(s2, kernel(6, 100'000'000));
    sim.run();
    EXPECT_NEAR(sim.nowSeconds(), bare.nowSeconds(), 1e-12);
}

TEST(GpuSim, WaitEventOnUnknownEventFatal)
{
    GpuSim sim(DeviceSpec::xavierNX());
    EXPECT_THROW(sim.waitEvent(0, 42), FatalError);
}

TEST(GpuSim, DelayUntilInterleavedStreamsOverlapStages)
{
    // Two pipelined "frames" on one device, each H2D -> wait ->
    // kernel -> wait -> D2H across dedicated upload / compute /
    // download streams with delayUntil pinning the second frame's
    // release: frame 2's upload must overlap frame 1's compute
    // (start before it ends), and every cross-stage dependency must
    // still be respected.
    auto build = [](GpuSim &sim) {
        int up = 0;
        int comp = sim.createStream();
        int down = sim.createStream();
        std::vector<std::array<EventId, 3>> ev;
        const double release[2] = {0.0, 1e-4};
        for (int i = 0; i < 2; i++) {
            sim.delayUntil(up, release[i]);
            sim.memcpyH2D(up, 500'000, 1, "in", true);
            EventId u = sim.recordEvent(up);
            sim.waitEvent(comp, u);
            sim.launchKernel(comp, kernel(600, 600'000'000));
            EventId c = sim.recordEvent(comp);
            sim.waitEvent(down, c);
            sim.memcpyD2H(down, 200'000, 1, "out", true);
            EventId d = sim.recordEvent(down);
            ev.push_back({u, c, d});
        }
        sim.run();
        return ev;
    };

    GpuSim sim(DeviceSpec::xavierNX());
    auto ev = build(sim);
    double u1 = sim.eventSeconds(ev[0][0]);
    double c1 = sim.eventSeconds(ev[0][1]);
    double d1 = sim.eventSeconds(ev[0][2]);
    double u2 = sim.eventSeconds(ev[1][0]);
    double c2 = sim.eventSeconds(ev[1][1]);
    double d2 = sim.eventSeconds(ev[1][2]);
    // Stage DAG per frame.
    EXPECT_LE(u1, c1);
    EXPECT_LE(c1, d1);
    EXPECT_LE(u2, c2);
    EXPECT_LE(c2, d2);
    // Copy/compute overlap: frame 2's upload finished before frame
    // 1's compute did — the stages genuinely interleave.
    EXPECT_LT(u2, c1);
    // Compute stream is FIFO: frame 2's kernel after frame 1's.
    EXPECT_GE(c2, c1);

    // Determinism: an identical enqueue replays to the exact same
    // event times, so interleaving introduces no ordering jitter.
    GpuSim again(DeviceSpec::xavierNX());
    auto ev2 = build(again);
    for (int i = 0; i < 2; i++)
        for (int s = 0; s < 3; s++)
            EXPECT_DOUBLE_EQ(
                sim.eventSeconds(ev[static_cast<std::size_t>(i)]
                                   [static_cast<std::size_t>(s)]),
                again.eventSeconds(
                    ev2[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(s)]));
}

void
expectSameRecord(const OpRecord &a, const OpRecord &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.start_s, b.start_s);
    EXPECT_EQ(a.end_s, b.end_s);
    EXPECT_EQ(a.kernel.name, b.kernel.name);
    EXPECT_EQ(a.kernel.grid_blocks, b.kernel.grid_blocks);
    EXPECT_EQ(a.kernel.block_threads, b.kernel.block_threads);
    EXPECT_EQ(a.kernel.max_blocks_per_sm, b.kernel.max_blocks_per_sm);
    EXPECT_EQ(a.kernel.flops, b.kernel.flops);
    EXPECT_EQ(a.kernel.dram_bytes, b.kernel.dram_bytes);
}

// Op slots point at the caller's descriptor for lvalue launches and
// at a simulator-owned copy for rvalue launches; the records must
// not tell the two apart.
TEST(GpuSim, LvalueAndRvalueLaunchesRecordIdentically)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    // Names past the small-string buffer, so the record copies a
    // heap-allocated name in both cases.
    KernelDesc a = kernel(12, 300'000'000, 4'000'000);
    a.name = "trt_volta_h884cudnn_256x64_ldg8_relu_exp_small_nhwc";
    KernelDesc b = kernel(600, 50'000'000);
    b.name = "trt_volta_fp32_icudnn_int8x4_128x128_relu_medium_c32";

    GpuSim lv(nx);
    lv.launchKernel(0, a);
    lv.launchKernel(0, b);
    lv.launchKernel(0, a);
    lv.run();

    GpuSim rv(nx);
    rv.launchKernel(0, KernelDesc(a));
    rv.launchKernel(0, KernelDesc(b));
    rv.launchKernel(0, KernelDesc(a));
    rv.run();

    ASSERT_EQ(lv.trace().size(), 3u);
    ASSERT_EQ(rv.trace().size(), 3u);
    for (std::size_t i = 0; i < 3; i++)
        expectSameRecord(lv.trace()[i], rv.trace()[i]);
    EXPECT_EQ(lv.trace()[1].name, b.name);
    EXPECT_EQ(lv.trace()[2].kernel.flops, a.flops);
    EXPECT_EQ(lv.nowSeconds(), rv.nowSeconds());
}

// One descriptor referenced by ops on two streams at once, then
// launched again after run() recycled those op slots (and an rvalue
// launch reused the owned-descriptor slot in between): every record
// still carries the descriptor it was launched with.
TEST(GpuSim, SharedDescriptorSurvivesSlotRecycling)
{
    DeviceSpec nx = DeviceSpec::xavierNX();
    KernelDesc shared = kernel(6, 200'000'000);
    shared.name = "shared_descriptor_launched_on_two_streams";

    GpuSim sim(nx);
    int s1 = sim.createStream();
    sim.launchKernel(0, shared);
    sim.launchKernel(s1, shared);
    sim.launchKernel(s1, kernel(3, 1'000'000));
    sim.run();
    ASSERT_EQ(sim.trace().size(), 3u);
    double first_end = sim.nowSeconds();

    // Recycled slots: same descriptor on both streams again, with a
    // different temporary ahead of it on stream 0.
    KernelDesc other = kernel(60, 10'000'000);
    other.name = "other_descriptor_in_recycled_slot";
    sim.launchKernel(0, KernelDesc(other));
    sim.launchKernel(0, shared);
    sim.launchKernel(s1, shared);
    sim.run();

    const auto &tr = sim.trace();
    ASSERT_EQ(tr.size(), 6u);
    int shared_records = 0;
    for (const OpRecord &r : tr) {
        EXPECT_EQ(r.name, r.kernel.name);
        if (r.name == shared.name) {
            shared_records++;
            EXPECT_EQ(r.kernel.grid_blocks, shared.grid_blocks);
            EXPECT_EQ(r.kernel.flops, shared.flops);
        }
    }
    EXPECT_EQ(shared_records, 4);
    EXPECT_EQ(tr[0].name, shared.name);
    EXPECT_EQ(tr[0].stream, 0);
    EXPECT_EQ(tr[1].name, shared.name);
    EXPECT_EQ(tr[1].stream, s1);
    EXPECT_EQ(tr[0].start_s, tr[1].start_s);
    EXPECT_EQ(tr[0].end_s, tr[1].end_s);
    EXPECT_EQ(tr[3].name, other.name);
    EXPECT_EQ(tr[3].kernel.grid_blocks, other.grid_blocks);
    EXPECT_GE(tr[3].start_s, first_end);
}

// ------------------------------------------------------------------
// Windowed replay: enqueueing a release plan window by window with
// runUntil() must reproduce enqueue-everything-then-run() exactly,
// as long as every source keeps one release at or past the horizon
// enqueued (the serving replay's invariant).
// ------------------------------------------------------------------

/** One source: its release times and what each release enqueues
 *  (the delayUntil first), recording its events in order. */
struct ReplaySource
{
    std::vector<double> releases;
    std::function<void(GpuSim &, double, std::vector<EventId> &)>
        issue;
};

/** What a replay left behind, with event ids mapped to source order
 *  (ids differ between the two enqueue orders; times must not). */
struct ReplayOutcome
{
    std::vector<OpRecord> trace;
    std::vector<std::vector<double>> event_s; //!< [source][k]
    std::uint64_t ops_completed = 0;
    UtilStats stats;
    double now_s = 0.0;
};

/** Replay `sources` on a fresh simulator made by `make`, enqueueing
 *  everything up front (window <= 0) or window by window. */
ReplayOutcome
replay(const std::function<std::unique_ptr<GpuSim>()> &make,
       const std::vector<ReplaySource> &sources, double window)
{
    std::unique_ptr<GpuSim> sim = make();
    std::vector<std::vector<EventId>> ids(sources.size());
    std::vector<std::size_t> next(sources.size(), 0);
    auto enqueueUntil = [&](double horizon) {
        bool more = false;
        for (std::size_t s = 0; s < sources.size(); s++) {
            const auto &rel = sources[s].releases;
            while (next[s] < rel.size() &&
                   (next[s] == 0 || rel[next[s] - 1] < horizon)) {
                sources[s].issue(*sim, rel[next[s]], ids[s]);
                next[s]++;
            }
            more = more || next[s] < rel.size();
        }
        return more;
    };
    if (window <= 0.0) {
        enqueueUntil(std::numeric_limits<double>::infinity());
    } else {
        for (double h = window; enqueueUntil(h); h += window)
            sim->runUntil(h);
    }
    sim->run();

    ReplayOutcome out;
    out.trace = sim->trace();
    for (const auto &per_source : ids) {
        out.event_s.emplace_back();
        for (EventId id : per_source)
            out.event_s.back().push_back(sim->eventSeconds(id));
    }
    out.ops_completed = sim->opsCompleted();
    out.stats = sim->stats();
    out.now_s = sim->nowSeconds();
    return out;
}

void
expectSameReplay(const ReplayOutcome &a, const ReplayOutcome &b)
{
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); i++) {
        SCOPED_TRACE("trace record " + std::to_string(i));
        EXPECT_EQ(a.trace[i].kind, b.trace[i].kind);
        EXPECT_EQ(a.trace[i].name, b.trace[i].name);
        EXPECT_EQ(a.trace[i].stream, b.trace[i].stream);
        EXPECT_EQ(a.trace[i].start_s, b.trace[i].start_s);
        EXPECT_EQ(a.trace[i].end_s, b.trace[i].end_s);
    }
    EXPECT_EQ(a.event_s, b.event_s);
    EXPECT_EQ(a.ops_completed, b.ops_completed);
    EXPECT_EQ(a.stats.window_s, b.stats.window_s);
    EXPECT_EQ(a.stats.sm_busy_integral, b.stats.sm_busy_integral);
    EXPECT_EQ(a.stats.gpu_busy_s, b.stats.gpu_busy_s);
    EXPECT_EQ(a.stats.copy_busy_s, b.stats.copy_busy_s);
    EXPECT_EQ(a.stats.dram_bytes, b.stats.dram_bytes);
    EXPECT_EQ(a.now_s, b.now_s);
}

/** Windows from one that cuts through every dispatch (far shorter
 *  than any of them) to one longer than the whole replay. */
const double kWindows[] = {20e-6, 137e-6, 1e-3, 3e-3, 3.3e-3, 1.0};

TEST(GpuSimWindowed, TiedDelayReleasesMatchUpfrontRun)
{
    // Three streams release in pairs at the same instants. The
    // first of a pair finds every stream idle, so three delays wait
    // on one end time and the calendar's insertion seq (the order
    // the streams went idle: 0, 2, 1) orders their retirement; the
    // second queues behind a busy stream, so its release is past
    // due when the stream reaches it.
    auto make = [] {
        auto sim = std::make_unique<GpuSim>(DeviceSpec::xavierNX());
        sim->createStream();
        sim->createStream(2.0);
        return sim;
    };
    std::vector<ReplaySource> sources;
    for (int s = 0; s < 3; s++) {
        ReplaySource src;
        for (int k = 0; k < 40; k++)
            src.releases.push_back(3e-3 * (k / 2));
        src.issue = [s](GpuSim &sim, double t,
                        std::vector<EventId> &ev) {
            sim.delayUntil(s, t);
            ev.push_back(sim.recordEvent(s));
            sim.memcpyH2D(s, 200'000, 1, "in");
            sim.launchKernel(s, kernel(4 + 2 * s, 30'000'000,
                                       8'000'000));
            sim.launchKernel(s, kernel(8, 20'000'000));
            ev.push_back(sim.recordEvent(s));
        };
        sources.push_back(src);
    }
    ReplayOutcome upfront = replay(make, sources, 0.0);
    ASSERT_EQ(upfront.ops_completed, 3u * 40u * 4u);
    for (double w : kWindows) {
        SCOPED_TRACE("window " + std::to_string(w));
        expectSameReplay(upfront, replay(make, sources, w));
    }
}

TEST(GpuSimWindowed, WaitEventPipelineMatchesUpfrontRun)
{
    // Two instances of the upload -> compute -> download pipeline
    // (enqueueStagedPipelined's shape): the compute and download
    // streams park on waitEvent, so a pause must leave them parked
    // on the dispatch beyond the horizon, not drained.
    auto make = [] {
        auto sim = std::make_unique<GpuSim>(DeviceSpec::xavierNX());
        for (int i = 0; i < 5; i++)
            sim->createStream();
        return sim;
    };
    std::vector<ReplaySource> sources;
    for (int inst = 0; inst < 2; inst++) {
        ReplaySource src;
        double t = 0.1e-3 * inst;
        for (int k = 0; k < 30; k++) {
            src.releases.push_back(t);
            t += (k % 3 == 0 ? 0.2e-3 : 1.1e-3);
        }
        const int up = 3 * inst, comp = up + 1, down = up + 2;
        src.issue = [=](GpuSim &sim, double rel,
                        std::vector<EventId> &ev) {
            sim.delayUntil(up, rel);
            ev.push_back(sim.recordEvent(up));
            sim.memcpyH2D(up, 600'000, 1, "input_h2d", true);
            EventId uploaded = sim.recordEvent(up);
            ev.push_back(uploaded);
            sim.waitEvent(comp, uploaded);
            sim.launchKernel(comp, kernel(6, 60'000'000, 4'000'000));
            sim.launchKernel(comp, kernel(3, 25'000'000));
            EventId computed = sim.recordEvent(comp);
            ev.push_back(computed);
            sim.waitEvent(down, computed);
            sim.memcpyD2H(down, 100'000, 1, "output_d2h", true);
            ev.push_back(sim.recordEvent(down));
        };
        sources.push_back(src);
    }
    ReplayOutcome upfront = replay(make, sources, 0.0);
    int waits = 0;
    for (const OpRecord &r : upfront.trace)
        waits += r.kind == OpKind::kWaitEvent;
    ASSERT_EQ(waits, 2 * 30 * 2);
    for (double w : kWindows) {
        SCOPED_TRACE("window " + std::to_string(w));
        expectSameReplay(upfront, replay(make, sources, w));
    }
}

TEST(GpuSimWindowed, RunUntilStopsShortOfTheHorizon)
{
    GpuSim sim(DeviceSpec::xavierNX());
    sim.delayUntil(0, 2e-3);
    sim.launchKernel(0, kernel(6, 100'000'000));
    sim.runUntil(2e-3);
    EXPECT_LT(sim.nowSeconds(), 2e-3);
    EXPECT_EQ(sim.opsCompleted(), 0u);
    sim.runUntil(2e-3); // idempotent at the same horizon
    EXPECT_EQ(sim.opsCompleted(), 0u);
    sim.run();
    EXPECT_EQ(sim.opsCompleted(), 2u);
    EXPECT_GT(sim.nowSeconds(), 2e-3);
}

/** Property sweep: makespan of N identical kernels across N streams
 *  is bounded below by work conservation and above by serial
 *  execution. */
class ConcurrencyProperty : public ::testing::TestWithParam<int>
{};

TEST_P(ConcurrencyProperty, MakespanBounds)
{
    int n = GetParam();
    DeviceSpec nx = DeviceSpec::xavierNX();
    KernelDesc k = kernel(12, 400'000'000);
    GpuSim solo(nx);
    solo.launchKernel(0, k);
    solo.run();
    double t_one = solo.nowSeconds();

    GpuSim sim(nx);
    for (int i = 0; i < n; i++) {
        int s = i == 0 ? 0 : sim.createStream();
        sim.launchKernel(s, k);
    }
    sim.run();
    EXPECT_GE(sim.nowSeconds(), t_one * (1.0 - 1e-9));
    EXPECT_LE(sim.nowSeconds(), n * t_one * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConcurrencyProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16,
                                           24, 32));

} // namespace
} // namespace edgert::gpusim
