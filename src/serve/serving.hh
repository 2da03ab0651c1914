#ifndef EDGERT_SERVE_SERVING_HH
#define EDGERT_SERVE_SERVING_HH

/**
 * @file
 * The serving core shared by EdgeServe (runServer), EdgeFleet
 * (runFleet) and EdgeStream (runStreams). All three run the same two
 * deterministic phases — a control loop that plans each engine
 * instance's dispatches on BSP-predicted service times, then a GpuSim
 * replay of those plans — and share the mechanisms here: the control
 * queue, the calibrated engine-ladder build, the request table, the
 * windowed plan replay and the per-device report. Policy stays with
 * each caller: admission, routing and quarantine, hot-swap versus
 * staged rollout, backpressure, the instance pick, fleet placement
 * and every report's own JSON shape.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "core/builder.hh"
#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "obs/metrics.hh"
#include "profile/trace_export.hh"
#include "runtime/context.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"
#include "serve/workload.hh"

namespace edgert::serve {

/** The global registry's `name{model=<model>}` series. */
obs::Counter modelCounter(const std::string &name,
                          const std::string &model);
obs::Histogram modelHistogram(const std::string &name,
                              const std::string &model);

/** Control-plane discrete event; `kind` is the caller's event enum. */
struct ControlEvent
{
    double t = 0.0;
    std::int64_t seq = 0; //!< push order: total, deterministic tie-break
    int kind = 0;
    int target = 0;       //!< caller-defined: model, instance, node...
    std::int64_t req = -1;
};

/** Time-ordered event queue; equal times pop in push order. */
class ControlQueue
{
  public:
    /** Queue an event, stamping the next push-order sequence. */
    void push(double t, int kind, int target, std::int64_t req = -1);

    bool empty() const { return q_.empty(); }

    /** Remove and return the earliest event. */
    ControlEvent pop();

    /**
     * Arm (or re-arm after a front change) a queue's batch timeout:
     * when `front_id`, the oldest queued entry, is not the one the
     * armed timeout belongs to, push a `kind` event at `deadline_s`.
     */
    void armTimeout(std::int64_t &armed_id, std::int64_t front_id,
                    double deadline_s, int kind, int target);

  private:
    struct After
    {
        bool operator()(const ControlEvent &a,
                        const ControlEvent &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<ControlEvent, std::vector<ControlEvent>, After>
        q_;
    std::int64_t seq_ = 0;
};

/**
 * Plan one batch dispatch of `ids` on instance `inst_idx` at `t`:
 * the smallest engine of `set` fitting the batch, its calibrated
 * service time as the prediction, the instance busy until then, and
 * a `free_kind` event queued at that predicted-free time. Returns
 * the new plan entry.
 */
PlannedDispatch &planDispatch(ControlQueue &evq,
                              std::vector<Instance> &instances,
                              int inst_idx, const EngineSet &set,
                              int version, double t,
                              std::vector<std::int64_t> ids,
                              int free_kind);

/**
 * Build `model`'s power-of-two engine ladder on `device` and
 * calibrate each rung's predicted service time. Every rung gets a
 * fresh LatencyPredictor: a calibration table shared across the
 * ladder can leave each engine with a small systematic bias, and at
 * saturation that bias accumulates in the instances' predicted-free
 * times.
 */
EngineSet buildEngineSet(const gpusim::DeviceSpec &device,
                         const core::BuilderConfig &bcfg,
                         const std::string &model,
                         const std::vector<int> &ladder);

/**
 * One build generation of a model: an EngineSet per target (a
 * device, or a fleet device class). An empty set marks the model
 * unavailable there.
 */
struct EngineVersion
{
    std::uint64_t build_id = 0;
    std::vector<EngineSet> sets;

    bool availableOn(int target) const
    {
        return !sets[static_cast<std::size_t>(target)].engines.empty();
    }

    /** True when any target has engines. */
    bool available() const;
};

/**
 * Seeded workload: one arrival stream per model (forked from the
 * seed's "workload" lineage, in model order) merged into one table
 * ordered and numbered by arrival time. ModelConfig needs `arrivals`
 * and `slo_ms`.
 */
template <typename ModelConfig>
std::vector<Request>
requestTable(const std::vector<ModelConfig> &models, double duration_s,
             std::uint64_t seed)
{
    Rng root(seed);
    Rng workload_rng = root.fork("workload");
    std::vector<std::pair<double, int>> merged;
    for (std::size_t m = 0; m < models.size(); m++) {
        Rng rng = workload_rng.fork(m);
        for (double t :
             generateArrivals(models[m].arrivals, duration_s, rng))
            merged.emplace_back(t, static_cast<int>(m));
    }
    std::sort(merged.begin(), merged.end());
    std::vector<Request> requests;
    requests.reserve(merged.size());
    for (const auto &[t, m] : merged) {
        Request r;
        r.id = static_cast<std::int64_t>(requests.size());
        r.model = m;
        r.arrival_s = t;
        r.slo_ms = models[static_cast<std::size_t>(m)].slo_ms;
        requests.push_back(r);
    }
    return requests;
}

/** Enqueues one dispatch on its context; returns its events. */
using IssueFn =
    std::function<runtime::InferenceHandle(runtime::ExecutionContext &)>;

/**
 * One instance's dispatch plan as the replay issues it. Each
 * dispatch is released at its planned time on `inst->stream`
 * (delayUntil) and issued by `issue` through an ExecutionContext
 * bound to `ctx_stream`, created on first use per (version, engine)
 * and kept for the whole replay: through a hot-swap, batches planned
 * on the incumbent drain on its contexts while new batches run on
 * the candidate's. The engines are `(*versions)[pd.version]
 * .sets[target]`; the simulator's ops point at their kernel
 * descriptors. The replay writes each dispatch's events into the
 * plan.
 */
struct PlanSource
{
    Instance *inst = nullptr;
    const std::vector<EngineVersion> *versions = nullptr;
    int target = 0;
    int ctx_stream = 0;
    IssueFn issue;
};

/** Simulated seconds between the windowed replay's horizons. */
inline constexpr double kReplayWindowS = 1.0;

/**
 * Replay `sources` on `sim` one window at a time, so live ops stay
 * O(in flight) rather than O(simulated duration). Each window
 * enqueues, per source, every dispatch released before the horizon
 * plus the first one at or after it, then runs the simulator up to
 * the horizon; the last window drains with run(). Because every
 * source with future work keeps a dispatch enqueued beyond the
 * horizon, each of its streams is busy when the simulator pauses,
 * so later enqueues never change admission order, delay tie-breaks
 * or any op's start time: the result is the one an
 * enqueue-everything-then-run() replay produces, bit for bit.
 */
void replayPlans(gpusim::GpuSim &sim,
                 const std::vector<PlanSource> &sources);

/** One simulator per device, in device order. */
using DeviceSims = std::vector<std::unique_ptr<gpusim::GpuSim>>;

/**
 * Replay every device's plan sources (`sources[d]` on `sims[d]`)
 * under the trace policy. With one thread the devices replay
 * serially in index order, each inside a `span` labelled with its
 * device; with more they run concurrently on a ThreadPool inside
 * one `span`, each simulator buffering its histogram records and
 * committing them in device order afterwards, so reports, metric
 * snapshots and traces are byte-identical at any thread count.
 * `wall_s`, when given, receives each device's replay wall time
 * (enqueue included). Returns the pool's stats when a pool ran.
 */
std::optional<PoolStats>
runDevices(const DeviceSims &sims,
           const std::vector<std::vector<PlanSource>> &sources,
           const std::vector<gpusim::DeviceSpec> &devices,
           int sim_threads, gpusim::TraceMode trace_mode,
           int trace_sample_every, const std::string &span,
           std::vector<double> *wall_s = nullptr);

/** Per-device serving outcome. */
struct DeviceStats
{
    std::string device;
    int instances = 0;
    double sm_util_pct = 0.0;   //!< tegrastats GR3D analogue
    double copy_busy_pct = 0.0;
    double makespan_s = 0.0;    //!< drain time of the replay
    std::int64_t ram_used_bytes = 0;
    std::int64_t ram_budget_bytes = 0;
};

/**
 * Each device's outcome after the replay, publishing
 * `<prefix>.device.{sm_util_pct,copy_busy_pct,instances}` gauges
 * labelled with the device name and index.
 */
std::vector<DeviceStats>
deviceReport(const DeviceSims &sims,
             const std::vector<gpusim::DeviceSpec> &devices,
             const InstancePool &pool, const std::string &prefix);

/** The `"devices"` array of a serve or stream report. */
void writeDevicesJson(std::ostream &os,
                      const std::vector<DeviceStats> &devices);

/**
 * Write a merged chrome://tracing timeline to `path`: the host spans,
 * one process per device simulator, and `overlay` spans on the
 * simulated clock under the process `overlay_name`.
 */
void saveDeviceTraces(const std::string &path, const DeviceSims &sims,
                      const std::vector<gpusim::DeviceSpec> &devices,
                      const std::vector<profile::SimSpan> &overlay,
                      const std::string &overlay_name);

} // namespace edgert::serve

#endif // EDGERT_SERVE_SERVING_HH
